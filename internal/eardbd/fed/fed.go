// Package fed is the federation tier above sharded EARDBD daemons.
// EAR's production deployments run one EARDBD per island; the cluster
// view the global manager and the admin tools need is the union of
// what every island daemon aggregated. This package provides that
// union as a Root: a query-only service that fans snapshot queries out
// to the shards, merges the answers in node order, and serves the
// same wire snapshot API a single daemon does — so eargm.PowerSource
// consumers and `earctl dbd` work unchanged whether they talk to one
// daemon or a fleet. The root learns what the shards hold from one
// query kind, changes: every shard's whole view from generation zero,
// then what moved since (cache.go). Shards must therefore be upgraded
// before the roots above them: a root refuses, with a counted fan-out
// error, a shard that does not know the kind.
//
// Merging is built for byte-identity, not just equivalence. Node
// powers merge by sorted node name, the exact order a single daemon
// sums in; job summaries are recomputed by folding every shard's
// node reports into one eard.DB and running the same Summarize
// arithmetic over the same sorted records. A workload routed through
// N shards therefore renders the same aggregate, bit for bit, as the
// same workload through one daemon — the contract the closed-loop
// tests pin.
package fed

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"goear/internal/accounting"
	"goear/internal/eardbd"
	"goear/internal/eardbd/ring"
	"goear/internal/par"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Fleet describes a shard fleet: the member daemons' names, the
// consistent-hash ring that places every node on exactly one of them,
// and the one function that opens a connection to a member. Reporters,
// a root's fan-out and admin tools all reach the shards through that
// function, so wrapping it puts a fault between every client and the
// fleet at once.
type Fleet struct {
	names []string
	ring  *ring.Ring
	dial  func(name string) (net.Conn, error)
}

// NewFleet describes the named shards, reached through dial — or over
// TCP with the names as addresses when dial is nil, the way the
// binaries reach external daemons. At least one shard is required;
// names must be unique and non-empty.
func NewFleet(names []string, dial func(name string) (net.Conn, error)) (*Fleet, error) {
	if len(names) == 0 {
		return nil, errors.New("fed: a fleet needs at least one shard")
	}
	rg, err := ring.NewWithMembers(0, names)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &Fleet{names: append([]string(nil), names...), ring: rg, dial: dial}, nil
}

// Names returns the shard names in the order given, which is the order
// a root queries and merges them in.
func (f *Fleet) Names() []string { return append([]string(nil), f.names...) }

// Owner returns the shard a node's reports land on.
func (f *Fleet) Owner(node string) string {
	owner, _ := f.ring.Owner(node) // a ring with members owns every key
	return owner
}

// Dial opens a connection to one shard.
func (f *Fleet) Dial(name string) (net.Conn, error) { return f.dial(name) }

// DialFor returns a dial function routing one node to its ring owner.
func (f *Fleet) DialFor(node string) func() (net.Conn, error) {
	owner := f.Owner(node)
	return func() (net.Conn, error) { return f.dial(owner) }
}

// Config parameterises a federation root.
type Config struct {
	// Fleet is the shards the root serves the union of, queried in
	// Fleet.Names order.
	Fleet *Fleet
	// MaxFramePayload caps frame payloads on both the shard-facing and
	// serving sides (default wire.DefaultMaxPayload).
	MaxFramePayload int
	// Telemetry, when set, exposes fan-out activity as
	// goear_eardbd_fed_* families in that set; nil makes every
	// instrument a no-op.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per served query: a
	// fed.query root continuing the incoming frame's context, one
	// fed.fanout child per shard (created in configured shard order, so
	// the tree is identical whatever order the shards answer in), and a
	// fed.merge child annotated with the snapshot cache outcome. Nil
	// disables tracing at zero cost.
	Trace *trace.Buffer
	// Now, when set, stamps span times and feeds the
	// goear_eardbd_fed_latency_seconds histograms. Nil leaves spans
	// untimed and observes no latencies; the span tree itself stays
	// fully deterministic.
	Now func() float64
}

// Stats counts root activity since construction.
type Stats struct {
	Queries      int `json:"queries"`       // snapshot queries served by the root
	Fanouts      int `json:"fanouts"`       // shard queries issued
	FanoutErrors int `json:"fanout_errors"` // shard queries that failed
	Dials        int `json:"dials"`         // shard connections opened (the other fan-outs reused a parked one)
	Redials      int `json:"redials"`       // of those, second attempts after a reused connection failed
	CacheHits    int `json:"cache_hits"`    // merged snapshots served from cache
	CacheMisses  int `json:"cache_misses"`  // merged snapshots rebuilt from the shards' changes
}

// Root is the federation front end: an eardbd.Front — the listeners,
// frame loop and query switch a shard daemon serves with — over a
// Backend that fans out to the shards. It is safe for concurrent use.
// Every state query is answered from a generation-keyed cached view
// (see cache.go): a query costs one cheap generation poll per shard
// until ingest actually moves, instead of a full record dump.
type Root struct {
	eardbd.Front
	cfg Config
	tel rootTel

	mu     sync.Mutex
	stats  Stats
	reach  map[string]bool         // last fan-out outcome per shard
	idle   map[string][]*shardConn // parked shard connections, most recently used last
	closed bool                    // Close has run: connections are closed, not parked
	// gen is the root's answer to a generation query; answered and
	// answeredEpoch are the shard vector and epoch it last moved for
	// (cache.go).
	gen           wire.Generation
	answered      []wire.Generation
	answeredEpoch uint64

	cache atomic.Pointer[view]
	// epoch counts failed legs and redials: a shard may have restarted
	// behind one, so a view is only served under the epoch it was polled
	// in (cache.go).
	epoch atomic.Uint64
}

// NewRoot builds a root over the given shards.
func NewRoot(cfg Config) (*Root, error) {
	if cfg.Fleet == nil {
		return nil, errors.New("fed: root needs a fleet")
	}
	if cfg.MaxFramePayload <= 0 {
		cfg.MaxFramePayload = wire.DefaultMaxPayload
	}
	root := &Root{
		cfg:   cfg,
		tel:   newRootTel(cfg.Telemetry),
		reach: map[string]bool{},
		idle:  map[string][]*shardConn{},
	}
	root.Front = eardbd.Front{
		Backend:         root,
		Batch:           root.refuseBatch,
		Count:           root.count,
		MaxFramePayload: cfg.MaxFramePayload,
		Tracer:          trace.New("fedroot", cfg.Trace),
		QuerySpan:       spanFedQuery,
		Now:             cfg.Now,
		QueryLatency:    root.tel.latQuery,
		ReplyBytes:      eardbd.NewReplyBytes(cfg.Telemetry),
	}
	root.tel.shards.Set(float64(len(cfg.Fleet.names)))
	return root, nil
}

// shardsReachable reports how many shards answered their most recent
// fan-out query, out of the configured total. Shards not yet queried
// count as unreachable: a root that has never completed a fan-out is
// not ready.
func (r *Root) shardsReachable() (ok, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.cfg.Fleet.names {
		if r.reach[name] {
			ok++
		}
	}
	return ok, len(r.cfg.Fleet.names)
}

// HealthCheck returns the root's readiness check for a telemetry
// Health set: OK when every shard answered its last fan-out.
func (r *Root) HealthCheck() telemetry.CheckFunc {
	return func() telemetry.Check {
		ok, total := r.shardsReachable()
		return telemetry.Check{
			Name:   "shards",
			OK:     ok == total,
			Detail: fmt.Sprintf("%d/%d shards reachable", ok, total),
		}
	}
}

// Stats returns a snapshot of the root's activity counters.
func (r *Root) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// maxIdlePerShard bounds the connections parked per shard between
// queries. One serves a root with one reader (the eargm control period,
// one admin tool); four cover a few dashboards reading at once, and a
// busier moment dials the surplus and closes it afterwards.
const maxIdlePerShard = 4

// shardConn is one connection to a shard with its framing state: the
// image its queries are built in and the buffer its replies arrive in,
// kept with it while it is parked, so a warm poll allocates nothing on
// either side.
type shardConn struct {
	wire.Conn
	raw net.Conn
}

// leg is one shard query in flight: q sent on conn, then its reply read
// from it. A query is an idempotent read, so a leg whose connection was
// parked (reused) may try once more on a fresh dial when it fails — the
// shard may have restarted under it, which the root cannot tell from a
// failing shard without asking again — and a failure on a fresh
// connection is the leg's answer. An error frame is not a failure but
// an answer, a refusal, on a sound connection. err ends the leg; conn
// is nil once it has failed.
type leg struct {
	shard  string
	at     int // the shard's index in the fleet
	q      wire.Query
	kid    *trace.Active // the leg's fed.fanout span, whose context the query frame carries; nil untraced
	t0     float64
	conn   *shardConn
	reused bool
	err    error
}

// queryShard runs one wire query against one shard: a fan-out of one
// leg, on the same send and read path. The result's body is the
// returned connection's read buffer. The caller decodes it and only
// then parks the connection: a parked connection's buffer belongs to
// the next query.
func (r *Root) queryShard(shard string, q wire.Query) (wire.Result, *shardConn, error) {
	l := r.checkOut(shard, q, nil)
	r.send(&l)
	res, err := r.receive(&l)
	return res, l.conn, err
}

// checkOut counts one fan-out and starts its leg on the shard's most
// recently parked connection, or on none; the telemetry says which, and
// whether a dial is a first attempt or the retry.
func (r *Root) checkOut(shard string, q wire.Query, kid *trace.Active) leg {
	l := leg{shard: shard, q: q, kid: kid, t0: r.Now.Sec()}
	how := dialNew
	r.mu.Lock()
	r.stats.Fanouts++
	if idle := r.idle[shard]; len(idle) > 0 {
		l.conn, r.idle[shard] = idle[len(idle)-1], idle[:len(idle)-1]
		l.reused, how = true, dialReused
	} else {
		r.stats.Dials++
	}
	r.mu.Unlock()
	r.tel.dial(shard, how)
	return l
}

// dial opens a fresh connection to a shard.
func (r *Root) dial(shard string) (*shardConn, error) {
	raw, err := r.cfg.Fleet.dial(shard)
	if err != nil {
		return nil, err
	}
	conn := &shardConn{Conn: wire.Conn{MaxPayload: r.cfg.MaxFramePayload}, raw: raw}
	conn.Reset(raw)
	return conn, nil
}

// send puts the leg's query on its connection in one write, dialling
// first when it has none.
func (r *Root) send(l *leg) {
	for l.err == nil {
		if l.conn == nil {
			if l.conn, l.err = r.dial(l.shard); l.err != nil {
				return
			}
		}
		if l.err = eardbd.SendQuery(&l.conn.Conn, l.q, l.kid.Context()); l.err == nil || !r.retry(l) {
			return
		}
	}
}

// receive reads the reply to the leg's query — a failure on a reused
// connection sends the query again on a fresh one — and counts the
// leg's outcome. A refusal (an error frame, eardbd.ErrServer) comes
// back as the leg's error with its connection kept, and nothing is
// redialled. It counts as an answer, the shard reached, except to
// changes from zero: a shard that refuses to say what it holds — a
// build from before the kind — cannot serve the root, and the leg
// counts failed.
func (r *Root) receive(l *leg) (wire.Result, error) {
	var res wire.Result
	for l.err == nil {
		if res, l.err = eardbd.ReadResult(&l.conn.Conn); l.err == nil || errors.Is(l.err, eardbd.ErrServer) || !r.retry(l) {
			break
		}
		r.send(l)
	}
	whole := l.q.Kind == wire.QueryChanges && l.q.Limit <= 0
	r.countReach(l.shard, l.err == nil || errors.Is(l.err, eardbd.ErrServer) && !whole)
	r.Now.Observe(r.tel.latFanout, l.t0)
	if l.err != nil {
		return wire.Result{}, fmt.Errorf("fed: shard %s: %w", l.shard, l.err)
	}
	return res, nil
}

// retry hangs up the leg's failed connection and reports whether the
// leg may try again: once, and only if the connection was a parked one.
func (r *Root) retry(l *leg) bool {
	_ = l.conn.raw.Close() // the leg's error is the one to report
	l.conn = nil
	if !l.reused {
		return false
	}
	l.reused, l.err = false, nil
	r.dropIdle(l.shard)
	return true
}

// dropIdle counts a redial and closes everything parked for the shard:
// the connection that just failed was the youngest of them, so the
// rest have outlived the same event.
func (r *Root) dropIdle(shard string) {
	r.epoch.Add(1)
	r.mu.Lock()
	r.stats.Dials++
	r.stats.Redials++
	stale := r.idle[shard]
	delete(r.idle, shard)
	r.mu.Unlock()
	r.tel.dial(shard, dialRedial)
	for _, c := range stale {
		_ = c.raw.Close() // already dead, by the reasoning above
	}
}

// park keeps conn, whose last reply the caller is done with, for the
// shard's next query, or closes it when the idle list is full or the
// root has been closed meanwhile.
func (r *Root) park(shard string, conn *shardConn) {
	r.mu.Lock()
	keep := !r.closed && len(r.idle[shard]) < maxIdlePerShard
	if keep {
		r.idle[shard] = append(r.idle[shard], conn)
	}
	r.mu.Unlock()
	if !keep {
		_ = conn.raw.Close() // surplus, fully read: nothing to lose
	}
}

// Close stops serving (the Front's listeners, connections and
// handlers) and then closes every parked shard connection; one a query
// still in flight returns later is closed on arrival.
func (r *Root) Close() error {
	err := r.Front.Close()
	r.mu.Lock()
	r.closed = true
	idle := r.idle
	r.idle = map[string][]*shardConn{}
	r.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			if cerr := c.raw.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// countReach folds one fan-out outcome into the stats, the telemetry
// counters and the reachability view the readiness probe reports.
func (r *Root) countReach(shard string, ok bool) {
	if !ok {
		r.epoch.Add(1)
	}
	r.mu.Lock()
	r.reach[shard] = ok
	if !ok {
		r.stats.FanoutErrors++
	}
	r.mu.Unlock()
	r.tel.fanout(shard, ok)
}

// fanOutConcurrency is how many legs of a fan-out are kept on the
// caller's stack, and how many dials a cold root runs at once: eight
// covers realistic island counts without letting one root stampede the
// fleet.
const fanOutConcurrency = 8

// fanOut runs one query against every shard, on the calling goroutine,
// and decodes each result into decode(i): fanOutTo asking them all.
func (r *Root) fanOut(parent *trace.Active, q wire.Query, decode func(i int, res wire.Result) error) error {
	return r.fanOutTo(parent, func(int) (wire.Query, bool) { return q, true }, decode)
}

// fanOutTo runs on the calling goroutine the query ask names for each
// shard it names one for, and decodes each result into decode(i), i
// the shard's index in the fleet. Scatter: every leg is checked
// out and its query sent before any reply is read, so the shards work
// at once. Gather: the replies are read and decoded in configured shard
// order, leg i while the legs after it are still working — so the merged
// output is byte-identical to a sequential fan-out's and decode
// callbacks never race. A silent shard blocks the read of its reply as
// it would block any one round trip; nothing else waits on it.
//
// Every leg is read to the end, even after one has failed: each counts
// its reach, and each healthy connection is parked — a refused leg's
// too — once its reply is decoded (a result is its connection's read
// buffer) or skipped. The error is the lowest-indexed leg's, from its
// read or its decode.
//
// When parent is live, each shard gets a fed.fanout child span, created
// in configured shard order — span IDs come from a per-parent child
// counter, so creation order is what keeps the trace byte-identical
// across runs.
func (r *Root) fanOutTo(parent *trace.Active, ask func(i int) (wire.Query, bool), decode func(i int, res wire.Result) error) error {
	shards := r.cfg.Fleet.names
	var onStack [fanOutConcurrency]leg
	legs := onStack[:]
	if len(shards) > len(legs) {
		legs = make([]leg, len(shards))
	}
	n, cold := 0, 0
	for i, shard := range shards {
		q, ok := ask(i)
		if !ok {
			continue
		}
		legs[n] = r.checkOut(shard, q, parent.Child(spanFedFanout, r.Now.Sec()).Attr("shard", shard))
		legs[n].at = i
		if legs[n].conn == nil {
			cold++
		}
		n++
	}
	legs = legs[:n]
	if cold > 1 {
		r.dialCold(legs)
	}
	for i := range legs {
		r.send(&legs[i])
	}
	var first error
	for i := range legs {
		l := &legs[i]
		res, err := r.receive(l)
		if err == nil && res.Kind != l.q.Kind {
			err = fmt.Errorf("fed: shard %s answered kind %q to %q", l.shard, res.Kind, l.q.Kind)
		}
		result := "ok"
		switch {
		case errors.Is(err, eardbd.ErrServer):
			result = "refused"
		case err != nil:
			result = "error"
		}
		l.kid.Attr("result", result).End(r.Now.Sec())
		if err == nil && first == nil {
			if derr := decode(l.at, res); derr != nil {
				err = fmt.Errorf("fed: shard %s: %w", l.shard, derr)
			}
		}
		if l.conn != nil {
			r.park(l.shard, l.conn)
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// dialCold opens the connections of the legs that have none, at most
// fanOutConcurrency at a time: a cold root's fan-out, where dialling
// one shard after another would add the dials up. The dialling
// goroutines get copies of the legs, never the legs themselves, which
// stay on the fan-out's stack.
func (r *Root) dialCold(legs []leg) {
	var dials []leg
	for _, l := range legs {
		if l.conn == nil {
			dials = append(dials, leg{shard: l.shard})
		}
	}
	_ = par.ForEach(fanOutConcurrency, len(dials), func(j int) error {
		dials[j].conn, dials[j].err = r.dial(dials[j].shard)
		return nil // a failed dial is its leg's answer
	})
	for i := range legs {
		if legs[i].conn == nil {
			legs[i].conn, legs[i].err = dials[0].conn, dials[0].err
			dials = dials[1:]
		}
	}
}

// IngestStats implements eardbd.Backend by summing the activity
// counters of every shard: the cluster's ingest totals. The root's own
// Stats stay separate.
func (r *Root) IngestStats(parent *trace.Active) (eardbd.Stats, error) {
	var total eardbd.Stats
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryStats}, func(_ int, res wire.Result) error {
		var st eardbd.Stats
		if err := res.Decode(&st); err != nil {
			return err
		}
		total.Connections += st.Connections
		total.Batches += st.Batches
		total.DuplicateBatches += st.DuplicateBatches
		total.RecordsAccepted += st.RecordsAccepted
		total.RecordsDuplicate += st.RecordsDuplicate
		total.RecordsReplaced += st.RecordsReplaced
		total.AcctAccepted += st.AcctAccepted
		total.AcctDuplicate += st.AcctDuplicate
		total.AcctReplaced += st.AcctReplaced
		total.BatchesRejected += st.BatchesRejected
		total.ProtocolErrors += st.ProtocolErrors
		total.Queries += st.Queries
		return nil
	})
	if err != nil {
		return eardbd.Stats{}, err
	}
	return total, nil
}

// The in-process accessors below answer from the same Backend the wire
// queries do, outside any span: they trace nothing, only served frames
// do. Each is one view lookup.

// MergedStats returns the summed shard ingest counters.
func (r *Root) MergedStats() (eardbd.Stats, error) { return r.IngestStats(nil) }

// Aggregate returns the cluster view across every shard, with the
// arithmetic a single daemon uses (eardbd.View.Aggregate).
func (r *Root) Aggregate() (eardbd.Aggregate, error) {
	v, err := r.View(nil)
	if err != nil {
		return eardbd.Aggregate{}, err
	}
	return v.Aggregate(), nil
}

// NodePowers implements eargm.PowerSource over the merged federation
// view. The PowerSource interface cannot carry an error; an
// unreachable shard yields an empty reading for this interval (and a
// counted fan-out error) rather than a partial cluster view that
// would ratchet the budget against half the fleet.
func (r *Root) NodePowers() []float64 {
	v, err := r.View(nil)
	if err != nil {
		return nil
	}
	return eardbd.Watts(v.Powers)
}

// AcctQuery serves one filtered, paginated job-accounting query over
// the merged federation view. Pages are byte-identical to what a
// single daemon holding the union of the shards would serve — the
// merged store's canonical order has no memory of which shard a
// record came from.
func (r *Root) AcctQuery(q accounting.Query) (accounting.Page, error) {
	v, err := r.View(nil)
	if err != nil {
		return accounting.Page{}, err
	}
	return v.Acct.Query(q)
}

// IslandSource returns an eargm.PowerSource view of one shard: the
// per-island feed a cascaded manager ratchets against. The returned
// source polls the shard on every read; an unreachable shard reads as
// empty, matching NodePowers' degradation.
func (r *Root) IslandSource(name string) (*IslandSource, error) {
	if !slices.Contains(r.cfg.Fleet.names, name) {
		return nil, fmt.Errorf("fed: no shard named %s", name)
	}
	return &IslandSource{root: r, shard: name}, nil
}

// IslandSource adapts one shard to eargm.PowerSource.
type IslandSource struct {
	root  *Root
	shard string
}

// NodePowers implements eargm.PowerSource for one island.
func (s *IslandSource) NodePowers() []float64 {
	res, conn, err := s.root.queryShard(s.shard, wire.Query{Kind: wire.QueryNodePowers})
	var nps []wire.NodePower
	if err == nil {
		err = res.Decode(&nps)
	}
	if conn != nil {
		s.root.park(s.shard, conn)
	}
	if err != nil {
		return nil
	}
	return eardbd.Watts(nps)
}
