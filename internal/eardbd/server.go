// Package eardbd implements EAR's database daemon tier. In the EAR
// framework the per-node daemons (package eard holds their accounting
// schema) do not talk to the cluster database directly: they stream
// job records to an intermediate aggregation daemon, EARDBD, which
// batches, validates and deduplicates the traffic, and which the
// global manager (package eargm) polls for the cluster power view.
//
// This package provides both halves of that tier: a Server that
// accepts wire-framed record batches over TCP or unix sockets and
// folds them into an eard.DB, and a Client that node-side code uses
// to ship records — buffering in a bounded queue, flushing on size and
// interval triggers, retrying with jittered exponential backoff, and
// spilling to a local journal when the daemon is unreachable so that
// telemetry loss never perturbs the measured workload.
package eardbd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/grouped"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Server limits. A batch holds at most maxBatchRecords records. The
// batch-ID dedup window holds the last maxSeenBatches IDs; oldest IDs
// are evicted first. An eviction only matters if a client replays a
// batch older than the window, and even then the replay is caught
// record-by-record against the database.
const (
	maxBatchRecords = 1024
	maxSeenBatches  = 1 << 16
)

// Config bounds the server's exposure to any single connection.
type Config struct {
	// MaxFramePayload caps one frame's payload bytes (default
	// wire.DefaultMaxPayload). Larger frames are refused before their
	// payload is read, so a hostile length prefix cannot balloon memory.
	MaxFramePayload int
	// AcctMaxRecords caps the per-job accounting store's resident
	// record count (0 = unlimited). Over the cap, whole (job, step)
	// groups are evicted oldest-window-first; each eviction advances
	// the store generation so a root's cached view rebuilds.
	AcctMaxRecords int
	// Telemetry, when set, mirrors the Stats counters into that set's
	// registry (goear_eardbd_* families) and logs batch outcomes to its
	// event recorder. Nil makes every instrument a no-op.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per handled batch and query
	// into the buffer, continuing any trace context carried on the
	// incoming frame. Nil disables tracing at zero cost.
	Trace *trace.Buffer
	// Now, when set, stamps span start/end times and feeds the
	// per-operation latency histograms (goear_eardbd_latency_seconds).
	// It is a plain seconds reading — daemons inject a monotonic wall
	// clock, deterministic tests inject a logical one or leave it nil
	// (spans then carry no timestamps and no latencies are observed;
	// the span tree itself stays fully deterministic).
	Now func() float64
}

func (c Config) withDefaults() Config {
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = wire.DefaultMaxPayload
	}
	return c
}

// Stats counts server activity since start. The Acct* fields count
// per-job accounting records, classified with the same
// accepted/duplicate/replaced semantics as node reports.
type Stats struct {
	Connections      int `json:"connections"`
	Batches          int `json:"batches"`
	DuplicateBatches int `json:"duplicate_batches"`
	RecordsAccepted  int `json:"records_accepted"`
	RecordsDuplicate int `json:"records_duplicate"`
	RecordsReplaced  int `json:"records_replaced"`
	AcctAccepted     int `json:"acct_accepted"`
	AcctDuplicate    int `json:"acct_duplicate"`
	AcctReplaced     int `json:"acct_replaced"`
	BatchesRejected  int `json:"batches_rejected"`
	ProtocolErrors   int `json:"protocol_errors"`
	Queries          int `json:"queries"`
}

// Aggregate is the cluster-level view the global manager polls: how
// many nodes have reported, their summed last-known DC power, and the
// accounted energy so far.
type Aggregate struct {
	Nodes        int     `json:"nodes"`
	TotalPowerW  float64 `json:"total_power_w"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	Records      int     `json:"records"`
}

// Server is the aggregation daemon. One Server may serve several
// listeners (a TCP port and a unix socket, say) concurrently; Serve,
// ServeConn and Close are its Front's.
type Server struct {
	Front
	cfg  Config
	db   *eard.DB
	acct *accounting.Store
	tel  serverTel

	mu sync.Mutex
	// seen is the batch-ID window: true for a batch that is stored,
	// false for one a handler has claimed and is storing. A redelivery
	// that meets a claim waits on resolved for that, so a batch
	// is never in two handlers at once.
	seen      map[string]bool
	seenQueue []string  // FIFO eviction order for the stored IDs of seen
	resolved  sync.Cond // on mu; signalled when a claim resolves
	nodeW     map[string]nodeState
	powers    []wire.NodePower // the reported powers of nodeW name-sorted, as last handed out; nil once one has moved
	stats     Stats
	// gen.Gen is bumped once per batch that lands a record or moves a
	// node's power (a re-delivered batch of duplicates still rewrites
	// nodeW), and by a Restore that changes a power, which then
	// continues from the saved generation: everything View hands out is
	// covered, which a root's cached view relies on; see Generation. The
	// bump stamps the parts the batch moved — Records for a node report
	// accepted or replaced, Acct likewise, Powers for a changed power —
	// with the new value, after the stores took the batch. It is not
	// derived from the db and acct store generations because those move
	// on other events too: db is the caller's and arrives already loaded
	// from -db (its counter is past 0 before the first batch), and the
	// stores move per record, mid-batch, where gen moves once under mu
	// together with the node power view. Every node of a batch that
	// moved anything is stamped with the new value in nodeW, which is
	// what a changes query answers from (changes.go).
	gen     wire.Generation
	lastMut float64 // Now when a batch last landed a record (0 with no clock)
	// dropped is the generation at which the accounting store last lost
	// records — evicted over AcctMaxRecords, or replaced by a Restore —
	// which no changes answer can carry: a changes query from a
	// generation before it is refused (one from zero is answered whole). evicted is the store's eviction count as last seen.
	dropped uint64
	evicted int
	// changed is the scratch a changes answer is gathered in under mu,
	// and taken out while it streams (changes.go).
	changed      wire.Changes
	changedNodes []string
}

// NewServer builds a server folding records into db. Telemetry
// handles are resolved here, once.
func NewServer(db *eard.DB, cfg Config) *Server {
	acct := accounting.NewStore(cfg.Telemetry)
	if cfg.AcctMaxRecords > 0 {
		acct.SetMaxRecords(cfg.AcctMaxRecords)
	}
	s := &Server{
		cfg:   cfg.withDefaults(),
		db:    db,
		acct:  acct,
		tel:   newServerTel(cfg.Telemetry),
		seen:  map[string]bool{},
		nodeW: map[string]nodeState{},
	}
	s.resolved.L = &s.mu
	s.Front = Front{
		Backend:         s,
		Batch:           s.handleBatch,
		Count:           s.count,
		MaxFramePayload: s.cfg.MaxFramePayload,
		Tracer:          trace.New("eardbd", cfg.Trace),
		QuerySpan:       spanServerQuery,
		Now:             cfg.Now,
		QueryLatency:    s.tel.latQuery,
		Replies:         NewReplies(cfg.Telemetry),
	}
	return s
}

// count folds one front-end event into the stats and telemetry.
func (s *Server) count(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev {
	case eventConnection:
		s.stats.Connections++
		s.tel.conns.Inc()
	case EventQuery:
		s.stats.Queries++
		s.tel.queries.Inc()
	case eventProtocolError:
		s.stats.ProtocolErrors++
		s.tel.protoErrs.Inc()
	}
}

// DB exposes the backing database (for persistence by the daemon
// binary).
func (s *Server) DB() *eard.DB { return s.db }

// Acct exposes the per-job accounting store the server ingests into.
func (s *Server) Acct() *accounting.Store { return s.acct }

// The Backend of a daemon is its live state; nothing fans out, so the
// parent span goes unused and no method fails.

// IngestStats implements Backend.
func (s *Server) IngestStats(*trace.Active) (Stats, error) { return s.Stats(), nil }

// View implements Backend with the live stores and the last reported
// DC power of every node, sorted by node. The power list is the
// shard-level view the federation root merges: names make the merge
// unambiguous, and the shared sort order keeps the merged sum
// arithmetic identical to a single daemon's. It is sorted once per
// change of nodeW, not per query.
func (s *Server) View(*trace.Active) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.powers == nil {
		s.powers = s.sortedPowers()
	}
	return View{DB: s.db, Acct: s.acct, Powers: s.powers}, nil
}

// Generation implements Backend with the server's mutation counter: it
// advances every time a record — node report or accounting record — is
// accepted or replaced or a node's last reported power changes, and
// never otherwise; each part stamp only when its part did. Federation
// roots poll it to decide whether their cached merged view is still
// exact, and which parts of it to fold again when it is not.
func (s *Server) Generation(*trace.Active) (wire.Generation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, nil
}

// HealthCheck returns a readiness check on store freshness: degraded
// when records have landed before but none for more than staleAfterSec
// seconds — the signature of a daemon whose reporters all went away.
// With no clock configured, no staleness bound, or no records yet, the
// check only reports the generation. Mount it on a telemetry.Health.
func (s *Server) HealthCheck(staleAfterSec float64) telemetry.CheckFunc {
	return func() telemetry.Check {
		s.mu.Lock()
		gen, last := s.gen.Gen, s.lastMut
		landed := s.stats.RecordsAccepted + s.stats.RecordsReplaced + s.stats.AcctAccepted + s.stats.AcctReplaced
		s.mu.Unlock()
		c := telemetry.Check{Name: "store", OK: true, Detail: fmt.Sprintf("generation %d", gen)}
		if landed == 0 || staleAfterSec <= 0 || s.Now == nil {
			return c
		}
		age := s.Now() - last
		if age > staleAfterSec {
			c.OK = false
			c.Detail = fmt.Sprintf("generation %d stale: %.0fs since last record (limit %.0fs)", gen, age, staleAfterSec)
		}
		return c
	}
}

// handleBatch validates, deduplicates and stores one batch, then
// acks. It reports whether the connection should stay open. When
// tracing is on, the handling renders as a server.batch span —
// continuing the context the client stamped on the frame — with
// validate/dedup/store/acct children, so one delivered batch reads as
// a connected tree from the client's flush to the rows landing here.
// b is the connection's decode scratch: nothing of it but its strings
// may be kept once handleBatch returns.
func (s *Server) handleBatch(c *wire.Conn, f wire.Frame, b *wire.Batch) bool {
	t0 := s.Now.Sec()
	if err := c.DecodeBatch(f, b); err != nil {
		s.protocolError(c, err.Error())
		return false
	}
	sp := s.Tracer.Remote(f.Trace, spanServerBatch, t0)
	sp.Attr("batch", b.ID)
	done := func(result string) {
		sp.Attr("result", result).End(s.Now.Sec())
		s.Now.Observe(s.tel.latBatch, t0)
	}

	vsp := sp.Child(spanServerValidate, s.Now.Sec())
	reject := func(msg string) bool {
		vsp.End(s.Now.Sec())
		done("rejected")
		s.rejectBatch(c, msg)
		return true
	}
	if b.ID == "" {
		return reject("batch has no id")
	}
	if n := len(b.Records) + len(b.Acct); n > maxBatchRecords {
		return reject(fmt.Sprintf("batch %s holds %d records, limit %d", b.ID, n, maxBatchRecords))
	}
	for _, r := range b.Records {
		if err := r.Validate(); err != nil {
			return reject(fmt.Sprintf("batch %s: %v", b.ID, err))
		}
	}
	for _, r := range b.Acct {
		if err := r.Validate(); err != nil {
			return reject(fmt.Sprintf("batch %s: %v", b.ID, err))
		}
	}
	vsp.End(s.Now.Sec())

	// The window check is a claim: from here until the batch is marked
	// stored, its ID is this handler's. A client whose connection died
	// under a delivery retries on a new one while the first handler may
	// still be storing; were both let through, the retry's ack could
	// reach the client before the first delivery landed, the node's next
	// batch overtake it, and the older batch's power be the one that
	// stays. The retry waits instead, and is then acked as the duplicate
	// it is.
	dsp := sp.Child(spanServerDedup, s.Now.Sec())
	s.mu.Lock()
	stored, claimed := s.seen[b.ID]
	for claimed && !stored {
		s.resolved.Wait()
		stored, claimed = s.seen[b.ID]
	}
	if stored {
		n := len(b.Records) + len(b.Acct)
		s.stats.Batches++
		s.stats.DuplicateBatches++
		s.mu.Unlock()
		dsp.End(s.Now.Sec())
		done("duplicate")
		s.tel.batchDup.Inc()
		s.tel.recDup.Add(uint64(n))
		s.tel.batchEvent(b.Node, b.ID, "duplicate", &int3{b: n})
		return sendAck(c, wire.Ack{BatchID: b.ID, Duplicate: n})
	}
	s.seen[b.ID] = false
	s.mu.Unlock()
	dsp.End(s.Now.Sec())

	// Node records and the accounting records riding the same batch are
	// classified by the same store call and fold into one ack, so the
	// client's exactly-once machinery sees one outcome per batch. An
	// identical re-delivery (the batch-ID window evicted a replayed
	// batch, say) stores nothing.
	ssp := sp.Child(spanServerStore, s.Now.Sec())
	nodes, err := storeAll(b.Records, s.db.Put)
	ssp.End(s.Now.Sec())
	var acct [3]int
	if err == nil {
		asp := sp.Child(spanServerAcct, s.Now.Sec())
		acct, err = storeAll(b.Acct, s.acct.Insert)
		asp.End(s.Now.Sec())
	}
	if err != nil {
		// Validate passed above; an insert failure here is a bug, not
		// client traffic. Give the claim up, surface it and drop the
		// connection.
		s.mu.Lock()
		delete(s.seen, b.ID)
		s.resolved.Broadcast()
		s.mu.Unlock()
		done("error")
		s.protocolError(c, fmt.Sprintf("store batch %s: %v", b.ID, err))
		return false
	}
	ack := wire.Ack{
		BatchID:   b.ID,
		Accepted:  nodes[grouped.Accepted] + acct[grouped.Accepted],
		Duplicate: nodes[grouped.Duplicate] + acct[grouped.Duplicate],
		Replaced:  nodes[grouped.Replaced] + acct[grouped.Replaced],
	}

	s.mu.Lock()
	s.stats.Batches++
	s.stats.RecordsAccepted += nodes[grouped.Accepted]
	s.stats.RecordsDuplicate += nodes[grouped.Duplicate]
	s.stats.RecordsReplaced += nodes[grouped.Replaced]
	s.stats.AcctAccepted += acct[grouped.Accepted]
	s.stats.AcctDuplicate += acct[grouped.Duplicate]
	s.stats.AcctReplaced += acct[grouped.Replaced]
	if ack.Accepted+ack.Replaced > 0 {
		s.lastMut = s.Now.Sec()
	}
	powers := false
	for _, r := range b.Records {
		powers = s.setPower(r.Node, r.AvgPower) || powers
	}
	records, accounted := nodes[grouped.Accepted]+nodes[grouped.Replaced] > 0, acct[grouped.Accepted]+acct[grouped.Replaced] > 0
	if records || accounted || powers {
		s.gen = s.gen.Bump(records, accounted, powers)
		s.stamp(b)
		// Only an accepted accounting record evicts, so the batch that
		// did is here after its insert, if no other batch was first.
		if evicted := s.acct.Evicted(); evicted != s.evicted {
			s.dropped, s.evicted = s.gen.Gen, evicted
		}
	}
	s.seen[b.ID] = true
	s.seenQueue = append(s.seenQueue, b.ID)
	for len(s.seenQueue) > maxSeenBatches {
		delete(s.seen, s.seenQueue[0])
		s.seenQueue = s.seenQueue[1:]
	}
	s.resolved.Broadcast()
	s.mu.Unlock()
	done("accepted")
	s.tel.batchOK.Inc()
	s.tel.recAccept.Add(uint64(ack.Accepted))
	s.tel.recDup.Add(uint64(ack.Duplicate))
	s.tel.recReplace.Add(uint64(ack.Replaced))
	s.tel.batchEvent(b.Node, b.ID, "accepted", &int3{ack.Accepted, ack.Duplicate, ack.Replaced})
	return sendAck(c, ack)
}

// sendAck builds the ack in the connection's image and sends it; a
// failed write means the peer is gone, which the caller treats as
// connection end.
func sendAck(c *wire.Conn, a wire.Ack) bool {
	return c.Send(wire.TypeAck, trace.Context{}, wire.AppendAck(c.Body(), a)) == nil
}

// storeAll folds recs in through insert — the classifying call the
// node-report database and the accounting store share — and tallies
// the outcomes by grouped.Class.
func storeAll[R any](recs []R, insert func(R) (grouped.Class, error)) (byClass [3]int, err error) {
	for _, r := range recs {
		class, err := insert(r)
		if err != nil {
			return byClass, err
		}
		byClass[class]++
	}
	return byClass, nil
}

// Stats returns a snapshot of the activity counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NodePowers implements eargm.PowerSource: the last reported DC power
// of every node, ordered by node name so the feed is deterministic.
func (s *Server) NodePowers() []float64 {
	v, _ := s.View(nil) // the live view cannot fail
	return Watts(v.Powers)
}

// setPower records one node's last reported power and reports whether
// the value moved — in which case the sorted list View hands out is
// stale and the caller, who holds mu, owes a generation bump.
func (s *Server) setPower(node string, w float64) bool {
	st := s.nodeW[node]
	if st.reported && st.power == w {
		return false
	}
	st.power, st.reported = w, true
	s.nodeW[node] = st
	s.powers = nil
	return true
}

// Saved is what a daemon keeps across a restart beside its node-report
// database: every node's last reported power (the record set alone
// cannot reconstruct ingestion order, so the power view travels
// separately) and the per-job accounting store. The batch-ID window is
// not kept: a batch redelivered to a restarted daemon is deduplicated
// record by record against the stores. The generation is, so a
// restarted daemon never answers one it has answered with other
// contents: a root's cached view is keyed by it.
type Saved struct {
	Powers []wire.NodePower
	Acct   []accounting.Record
	Gen    uint64
}

// Saved captures the server's restart state, once it has stopped
// serving. Both lists are the live view's: read-only.
func (s *Server) Saved() Saved {
	v, _ := s.View(nil)         // the live view cannot fail
	gen, _ := s.Generation(nil) // nor can the counter
	return Saved{Powers: v.Powers, Acct: v.Acct.Snapshot(), Gen: gen.Gen}
}

// Restore loads a captured state, as a daemon booting over its
// persisted file does, without counting any of it as fresh ingest, and
// continues the generation from the saved one, every part stamped with
// it. It refuses a state holding a record or a power a batch could not
// have delivered.
func (s *Server) Restore(sv Saved) error {
	for _, np := range sv.Powers {
		switch {
		case np.Node == "":
			return fmt.Errorf("eardbd: restore: node power %g W has no node", np.PowerW)
		case math.IsNaN(np.PowerW) || math.IsInf(np.PowerW, 0):
			return fmt.Errorf("eardbd: restore: node %s power %g W is not finite", np.Node, np.PowerW)
		}
	}
	for _, r := range sv.Acct {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("eardbd: restore: %w", err)
		}
	}
	s.acct.Seed(sv.Acct)
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := false
	for _, np := range sv.Powers {
		moved = s.setPower(np.Node, np.PowerW) || moved
	}
	if moved {
		s.gen.Gen++
	}
	gen := max(s.gen.Gen, sv.Gen)
	s.gen = wire.Generation{Gen: gen, Records: gen, Acct: gen, Powers: gen}
	s.dropped, s.evicted = gen, s.acct.Evicted()
	return nil
}

// SaveState writes db and sv to path as a state file — the whole view a
// root reads on a cold miss: the changes answer from zero, streamed in
// the frames a connection keeps, then the generation, every part
// stamped with sv's — in one rename (eard.WriteFile): a crash mid-save
// leaves the previous file whole.
func SaveState(path string, db *eard.DB, sv Saved) error {
	return eard.WriteFile(path, func(w io.Writer) error {
		c := wire.Conn{MaxPayload: math.MaxInt32}
		c.Reset(writeEnd{w})
		image, err := c.AppendChanges(c.Body(), &wire.Changes{DB: db, Acct: sv.Acct, Powers: sv.Powers})
		if err == nil {
			err = c.Send(wire.TypeResult, trace.Context{}, image)
		}
		if err != nil {
			return err
		}
		g := wire.Generation{Gen: sv.Gen, Records: sv.Gen, Acct: sv.Gen, Powers: sv.Gen}
		return c.Send(wire.TypeResult, trace.Context{}, wire.AppendGeneration(c.Body(), g))
	})
}

// LoadState reads the state file at path: the node reports through
// DB.Insert, which validates each, and the rest as a Saved for Restore.
// A missing file is an error satisfying errors.Is(err, os.ErrNotExist).
// A frame larger than the file, and a file that is not exactly a
// changes answer and a generation — short of either, torn, followed by
// more bytes, not frames — is refused.
func LoadState(path string) (*eard.DB, Saved, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Saved{}, err
	}
	defer func() { _ = f.Close() }() // read-only: nothing to lose
	fi, err := f.Stat()
	if err != nil {
		return nil, Saved{}, err
	}
	c := wire.Conn{MaxPayload: int(min(fi.Size(), math.MaxInt32))}
	c.Reset(f)
	db, sv := eard.NewDB(), Saved{}
	res, err := resultOf(c.Read())
	if err == nil {
		err = readChanges(&c, res, db.Insert,
			func(r accounting.Record) error { sv.Acct = append(sv.Acct, r); return nil },
			func(np wire.NodePower) error { sv.Powers = append(sv.Powers, np); return nil })
	}
	var g wire.Generation
	if err == nil {
		res, err = resultOf(c.Read())
	}
	if err == nil {
		g, err = res.Generation()
	}
	if err == nil {
		if _, rerr := c.Read(); !errors.Is(rerr, io.EOF) {
			err = fmt.Errorf("%w: bytes follow the generation", wire.ErrPayload)
		}
	}
	if err != nil {
		return nil, Saved{}, fmt.Errorf("eardbd: state %s: %w", path, err)
	}
	sv.Gen = g.Gen
	return db, sv, nil
}

// readChanges applies a changes answer whose first frame is res, reading
// the rest of it from c, one frame at a time in c's read buffer: every
// node report to rec, every accounting record to acct, every node power
// to power (wire.ChangesReader). It returns the first error, a refusal
// or a frame out of place included.
func readChanges(c *wire.Conn, res wire.Result, rec func(eard.JobRecord) error, acct func(accounting.Record) error, power func(wire.NodePower) error) error {
	var s wire.ChangesReader
	for {
		done, err := s.Apply(res, rec, acct, power)
		if err != nil || done {
			return err
		}
		if res, err = ReadResult(c); err != nil {
			return err
		}
	}
}

// writeEnd is the file SaveState writes, as a transport never read.
type writeEnd struct{ io.Writer }

func (writeEnd) Read([]byte) (int, error) { return 0, io.EOF }

// rejectBatch counts and reports a permanent (non-retryable) batch
// rejection while keeping the connection open.
func (s *Server) rejectBatch(c *wire.Conn, msg string) {
	s.mu.Lock()
	s.stats.BatchesRejected++
	s.mu.Unlock()
	s.tel.batchRej.Inc()
	s.tel.batchEvent("", "", "rejected", nil)
	s.ReplyError(c, msg)
}
