package eardbd

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// ErrUnreachable reports that a flush could not deliver to the daemon
// within the configured attempts. Records are not lost: they were
// spilled to the journal (or kept queued when no journal is
// configured) and will be replayed by a later flush.
var ErrUnreachable = errors.New("eardbd: daemon unreachable")

// errQueueFull reports that a record was dropped because the bounded
// queue is full and no journal is configured to absorb the overflow.
var errQueueFull = errors.New("eardbd: queue full and no journal configured")

// rejectedError is a permanent, non-retryable server rejection (an
// invalid or oversized batch). The client drops the batch: resending a
// poison batch forever would wedge the pipeline.
type rejectedError struct{ Msg string }

func (e *rejectedError) Error() string { return "eardbd: server rejected batch: " + e.Msg }

// unreachableError is ErrUnreachable for one batch: how many attempts
// failed and the batch's ID, in one allocation.
type unreachableError struct {
	attempts int
	batch    string
}

func (e *unreachableError) Error() string {
	return ErrUnreachable.Error() + ": " + strconv.Itoa(e.attempts) + " attempts failed for batch " + e.batch
}

func (e *unreachableError) Unwrap() error { return ErrUnreachable }

// Client limits. The pending batch holds at most maxBatchRecords
// records and windows, the daemon's own batch limit, so no batch the
// client sends is refused for its size; a full one spills to the
// journal. Retry delays start at backoffBaseSec and double per attempt
// up to backoffMaxSec, each scaled by a jitter factor in [0.5, 1).
// Batch IDs are cut from blocks of at most maxIDBlock bytes. The window
// queue starts with room for the windows left before the batch
// trigger, at most firstWindows: a node reports a few windows an
// interval, not a batch of them.
const (
	firstWindows   = 8
	backoffBaseSec = 0.5
	backoffMaxSec  = 30
	maxIDBlock     = 1 << 10
)

// ClientConfig parameterises a reporting client. Node, Dial, Clock
// and Jitter are required; everything else has serviceable defaults.
type ClientConfig struct {
	// Node names this client in batch IDs; one client instance per node
	// keeps IDs cluster-unique.
	Node string
	// Dial opens a connection to the daemon. Injected so tests and
	// simulations can hand out in-process connections (Server.Dial) or
	// flaky transports.
	Dial func() (net.Conn, error)
	// Clock paces backoff sleeps and stamps spans.
	Clock Clock
	// Jitter randomises backoff; an explicitly seeded generator keeps
	// retry schedules reproducible. Only Float64 is called, so a
	// math/rand or a math/rand/v2 *Rand serves.
	Jitter interface{ Float64() float64 }
	// BatchRecords triggers a flush when the queue reaches this size
	// (default 64). NewClient refuses one past the daemon's batch limit
	// (1,024 records and windows).
	BatchRecords int
	// MaxAttempts bounds delivery tries per flush (default 3).
	MaxAttempts int
	// MaxFramePayload caps outgoing frame payloads (default
	// wire.DefaultMaxPayload); it must not exceed the server's limit.
	MaxFramePayload int
	// Journal absorbs batches when the daemon is unreachable. Optional:
	// without one, undeliverable batches stay queued and new records are
	// dropped once the queue fills.
	Journal *Journal
	// Telemetry, when set, mirrors the ClientStats counters into that
	// set's registry (goear_eardbd_client_* families) and logs spill and
	// replay events. Nil makes every instrument a no-op.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per batch into the buffer.
	// Each batch's trace is keyed by its batch ID (trace.RootNamed), so
	// the tree a batch renders is independent of which worker or shard
	// carried it, and a journaled batch's replay rejoins the trace its
	// spill started. Span timestamps come from Clock; nil disables
	// tracing at zero cost.
	Trace *trace.Buffer
	// RTTNow, when set, measures client-observed batch round trips
	// (write to ack) in seconds, feeding the
	// goear_eardbd_client_latency_seconds histogram and OnBatchRTT. It
	// is separate from Clock so wall-clock RTT measurement never
	// perturbs the deterministic logical timeline.
	RTTNow func() float64
	// OnBatchRTT, when set alongside RTTNow, receives each acked
	// batch's observed round trip. Called under the client lock; keep
	// it cheap (the load generator appends to a slice).
	OnBatchRTT func(seconds float64)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.BatchRecords <= 0 {
		c.BatchRecords = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = wire.DefaultMaxPayload
	}
	return c
}

// validate reports whether the required injections are present.
func (c ClientConfig) validate() error {
	switch {
	case c.Node == "":
		return errors.New("eardbd: client needs a node name")
	case c.Dial == nil:
		return errors.New("eardbd: client needs a dial function")
	case c.Clock == nil:
		return errors.New("eardbd: client needs an injected clock")
	case c.Jitter == nil:
		return errors.New("eardbd: client needs an explicitly seeded jitter generator")
	case c.BatchRecords > maxBatchRecords:
		return fmt.Errorf("eardbd: batch size %d is past the daemon's limit of %d records a batch", c.BatchRecords, maxBatchRecords)
	}
	return nil
}

// ClientStats counts client activity since construction.
type ClientStats struct {
	Enqueued        int `json:"enqueued"`
	Flushes         int `json:"flushes"`
	BatchesSent     int `json:"batches_sent"`
	RecordsSent     int `json:"records_sent"`
	Retries         int `json:"retries"`
	Redials         int `json:"redials"`
	BatchesSpilled  int `json:"batches_spilled"`
	RecordsSpilled  int `json:"records_spilled"`
	BatchesReplayed int `json:"batches_replayed"`
	BatchesRejected int `json:"batches_rejected"`
	RecordsDropped  int `json:"records_dropped"`
}

// Client ships job records to an EARDBD server. It is safe for
// concurrent use; all time and randomness are injected.
type Client struct {
	cfg    ClientConfig
	tel    clientTel
	tracer *trace.Tracer

	mu     sync.Mutex
	conn   net.Conn  // nil between connections
	framed wire.Conn // conn's framing state; its buffers outlive conn
	// batch is the pending batch's records, encoded as they were
	// enqueued, made by the first; windows are the pending accounting
	// windows, encoded behind them at each flush.
	batch   *wire.BatchBuilder
	windows []accounting.Record
	seq     uint64
	ids     wire.Literals // the block batch IDs are cut from
	stats   ClientStats
}

// NewClient builds a client. Records go out when a batch fills or on
// an explicit Flush or Close.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:    cfg,
		tel:    newClientTel(cfg.Telemetry),
		tracer: trace.New(cfg.Node, cfg.Trace),
		framed: wire.Conn{MaxPayload: cfg.MaxFramePayload},
	}
	if cfg.Journal != nil {
		// Resume the batch sequence past anything a previous process
		// spilled: reusing an ID would make the server's seen-window drop
		// a fresh batch as a redelivery.
		c.seq = cfg.Journal.maxSeq(cfg.Node)
	}
	return c, nil
}

// BatchID formats the client-assigned batch identifier for a node and
// sequence number. The "<node>/<seq>" shape is load-bearing — the
// server's duplicate window and Journal.maxSeq both parse it back — so
// every producer (client flush, spill, test fixtures) must build IDs
// here or through appendBatchID, which a client cuts its IDs from one
// block with, rather than re-deriving the format.
func BatchID(node string, seq uint64) string {
	var scratch [64]byte // holds any realistic ID: the string is the one allocation
	return string(appendBatchID(scratch[:0], node, seq))
}

// appendBatchID appends the batch ID of node and seq to dst.
func appendBatchID(dst []byte, node string, seq uint64) []byte {
	dst = append(dst, node...)
	dst = append(dst, '/')
	return strconv.AppendUint(dst, seq, 10)
}

// nextIDLocked advances the batch sequence and returns its ID, cut
// from the client's ID block, so IDs cost an allocation per block, not
// per batch. A block too full for the next ID is left to the IDs
// already cut from it, which the journal or a trace may still hold.
func (c *Client) nextIDLocked() string {
	c.seq++
	var scratch [64]byte
	id := appendBatchID(scratch[:0], c.cfg.Node, c.seq)
	return c.ids.Cut(id, max(maxIDBlock, len(id)))
}

// Enqueue buffers one record, flushing when the batch-size trigger
// fires. A full queue spills the oldest pending batch to the journal
// rather than blocking the caller: the reporting path must never stall
// the workload it measures.
func (c *Client) Enqueue(r eard.JobRecord) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.makeRoomLocked(); err != nil {
		return err
	}
	c.builderLocked().Add(&r)
	c.stats.Enqueued++
	if c.pendingLocked() >= c.cfg.BatchRecords {
		return c.flushLocked()
	}
	return nil
}

// EnqueueAcct buffers one per-job accounting record. Accounting
// records share the node-report pipeline — same queue capacity, batch
// IDs, journal spill and replay — so attribution inherits the
// exactly-once delivery contract without new machinery.
func (c *Client) EnqueueAcct(r accounting.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.makeRoomLocked(); err != nil {
		return err
	}
	if c.windows == nil {
		c.windows = make([]accounting.Record, 0, max(1, min(firstWindows, c.cfg.BatchRecords-c.pendingLocked())))
	}
	c.windows = append(c.windows, r)
	c.stats.Enqueued++
	if c.pendingLocked() >= c.cfg.BatchRecords {
		return c.flushLocked()
	}
	return nil
}

// builderLocked returns the pending batch's builder, made on first
// use with its first buffer sized for a full batch: a client that only
// replays its journal never makes one.
func (c *Client) builderLocked() *wire.BatchBuilder {
	if c.batch == nil {
		c.batch = wire.NewBatchBuilder(c.cfg.Node, c.cfg.BatchRecords)
	}
	return c.batch
}

// pendingLocked counts buffered records and windows together; the
// batch size and queue-capacity triggers act on the combined load
// because both ship in one wire batch.
func (c *Client) pendingLocked() int {
	n := len(c.windows)
	if c.batch != nil {
		n += c.batch.Len()
	}
	return n
}

// makeRoomLocked enforces the batch limit ahead of an append, spilling
// the pending batch when a journal can absorb it. With a journal the
// batch is spilled whenever a flush cannot reach the daemon, so it
// fills only after a failed spill.
func (c *Client) makeRoomLocked() error {
	if c.pendingLocked() < maxBatchRecords {
		return nil
	}
	if c.cfg.Journal == nil {
		c.stats.RecordsDropped++
		c.tel.dropped.Inc()
		return errQueueFull
	}
	if err := c.spillQueueLocked(); err != nil {
		c.stats.RecordsDropped++
		c.tel.dropped.Inc()
		return err
	}
	return nil
}

// Flush delivers the journal backlog and the queued records now.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// Close flushes best-effort and severs the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var flushErr error
	if c.pendingLocked() > 0 || (c.cfg.Journal != nil && c.cfg.Journal.Len() > 0) {
		flushErr = c.flushLocked()
	}
	c.closeConnLocked()
	return flushErr
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// encodePendingLocked gives the pending load the next batch ID and
// returns its image: the records as they were encoded at enqueue, the
// windows behind them. The image stays valid until the next enqueue,
// flush or clear.
func (c *Client) encodePendingLocked() EncodedBatch {
	id := c.nextIDLocked()
	image := c.builderLocked().Image(id, c.windows)
	return EncodedBatch{ID: id, Records: c.pendingLocked(), image: image}
}

// clearPendingLocked empties the pending load once its image is
// delivered or dropped. The builder keeps its buffer and the window
// queue its backing array for the next batch while they are small: a
// buffer grown past wire.MaxKept, or a queue past a batch's worth of
// windows, during an outage is let go.
func (c *Client) clearPendingLocked() {
	c.batch.Reset()
	c.windows = c.windows[:0]
	if cap(c.windows) > c.cfg.BatchRecords {
		c.windows = nil
	}
}

// flushLocked replays any journal backlog, then ships the queue. The
// queue batch is assigned its ID before the first send attempt and
// keeps it through retries and journal spills, which is what makes
// redelivery after a lost ack detectable server-side.
func (c *Client) flushLocked() error {
	c.stats.Flushes++
	c.tel.flushes.Inc()
	if err := c.replayLocked(); err != nil {
		// The daemon is unreachable; spill the live queue too and let a
		// later flush retry everything in order.
		if errors.Is(err, ErrUnreachable) && c.pendingLocked() > 0 {
			if serr := c.spillQueueLocked(); serr != nil {
				return serr
			}
		}
		return err
	}
	if c.pendingLocked() == 0 {
		return nil
	}
	b := c.encodePendingLocked()
	// The batch trace is rooted on the batch ID, so whatever worker or
	// shard handles it — or a later replay after a spill — renders the
	// same tree.
	sp := c.tracer.RootNamed(b.ID, spanClientBatch, c.cfg.Clock.Now())
	sp.Attr("node", c.cfg.Node)
	err := c.sendBatchLocked(b, sp)
	switch {
	case err == nil:
		sp.Attr("result", "acked")
		c.clearPendingLocked()
	case errors.Is(err, ErrUnreachable):
		sp.Attr("result", "unreachable")
		if c.cfg.Journal != nil {
			if serr := c.journalBatchLocked(b); serr != nil {
				sp.End(c.cfg.Clock.Now())
				return serr
			}
			sp.Attr("result", "spilled")
			c.clearPendingLocked()
		}
	default:
		var rej *rejectedError
		if errors.As(err, &rej) {
			// Permanent: drop the poison batch.
			sp.Attr("result", "rejected")
			c.countRejectedLocked(b)
			c.clearPendingLocked()
		} else {
			sp.Attr("result", "error")
		}
	}
	sp.End(c.cfg.Clock.Now())
	return err
}

// countRejectedLocked counts a batch the daemon will never take, and
// its records as dropped.
func (c *Client) countRejectedLocked(b EncodedBatch) {
	c.stats.BatchesRejected++
	c.stats.RecordsDropped += b.Records
	c.tel.rejected.Inc()
	c.tel.dropped.Add(uint64(b.Records))
}

// replayLocked redelivers spilled batches oldest-first, taking each out
// of the journal only after its ack. A replay sends the journaled image
// as it is: nothing is decoded, re-encoded or copied. Delivered batches
// leave the journal in memory one by one and its file once, when the
// pass ends — drained, or at the first batch the daemon cannot be
// reached for.
func (c *Client) replayLocked() error {
	j := c.cfg.Journal
	if j == nil {
		return nil
	}
	for {
		b, ok := j.head()
		if !ok {
			return j.compact()
		}
		// RootNamed keys the trace by batch ID, so the replay span lands
		// in the same trace the batch's original flush and spill did.
		rsp := c.tracer.RootNamed(b.ID, spanClientReplay, c.cfg.Clock.Now())
		err := c.sendBatchLocked(b, rsp)
		// The error is asserted, not errors.As'd: a target declared here
		// escapes, one allocation per entry — and, hoisted out of the
		// loop, one per flush, backlog or none.
		switch _, rejected := err.(*rejectedError); {
		case err == nil:
			rsp.Attr("result", "acked").End(c.cfg.Clock.Now())
			c.stats.BatchesReplayed++
			c.tel.replayed.Inc()
			c.tel.event(c.cfg.Clock.Now(), "eardbd.replay", c.cfg.Node, b.ID, b.Records)
		case rejected:
			// The daemon will never take this batch; keeping it would
			// wedge the journal forever.
			rsp.Attr("result", "rejected").End(c.cfg.Clock.Now())
			c.countRejectedLocked(b)
		default:
			rsp.Attr("result", "unreachable").End(c.cfg.Clock.Now())
			if cerr := j.compact(); cerr != nil {
				return cerr
			}
			return err
		}
		j.dropHead()
	}
}

// sendBatchLocked delivers one encoded batch with bounded, jittered
// exponential backoff. It returns nil on ack, a bare *rejectedError on
// a server error frame, or an *unreachableError when
// attempts are exhausted — and nothing else. Each send attempt is a
// client.send child of parent whose context rides the wire frame, which
// is how the server's span tree connects to this client's; backoff
// sleeps render as client.backoff children. The frame goes out from b's
// image in one write; the reply is read into the connection's kept
// buffer and an ack is matched against b.ID where it lies.
func (c *Client) sendBatchLocked(b EncodedBatch, parent *trace.Active) error {
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			c.tel.retries.Inc()
			d := c.backoff(attempt)
			c.tel.backoff.Observe(d)
			bsp := parent.Child(spanClientBackoff, c.cfg.Clock.Now())
			c.cfg.Clock.Sleep(d)
			bsp.End(c.cfg.Clock.Now())
		}
		if c.conn == nil {
			conn, err := c.cfg.Dial()
			if err != nil {
				continue
			}
			c.stats.Redials++
			c.tel.redials.Inc()
			c.conn = conn
			c.framed.Reset(conn)
		}
		ssp := parent.Child(spanClientSend, c.cfg.Clock.Now())
		var rt0 float64
		if c.cfg.RTTNow != nil {
			rt0 = c.cfg.RTTNow()
		}
		if err := c.framed.WriteImage(wire.TypeBatch, ssp.Context(), b.image); err != nil {
			ssp.Attr("result", "io_error").End(c.cfg.Clock.Now())
			c.closeConnLocked()
			continue
		}
		resp, err := c.framed.Read()
		if err != nil {
			ssp.Attr("result", "io_error").End(c.cfg.Clock.Now())
			c.closeConnLocked()
			continue
		}
		switch resp.Type {
		case wire.TypeAck:
			if !resp.AcksBatch(b.ID) {
				ssp.Attr("result", "bad_ack").End(c.cfg.Clock.Now())
				c.closeConnLocked()
				continue
			}
			ssp.Attr("result", "acked").End(c.cfg.Clock.Now())
			if c.cfg.RTTNow != nil {
				rtt := c.cfg.RTTNow() - rt0
				c.tel.latSend.Observe(rtt)
				if c.cfg.OnBatchRTT != nil {
					c.cfg.OnBatchRTT(rtt)
				}
			}
			c.stats.BatchesSent++
			c.stats.RecordsSent += b.Records
			c.tel.sent.Inc()
			c.tel.recSent.Add(uint64(b.Records))
			return nil
		case wire.TypeError:
			ef, err := resp.AsError()
			if err != nil {
				ssp.Attr("result", "io_error").End(c.cfg.Clock.Now())
				c.closeConnLocked()
				continue
			}
			ssp.Attr("result", "rejected").End(c.cfg.Clock.Now())
			return &rejectedError{Msg: ef.Message}
		default:
			ssp.Attr("result", "bad_frame").End(c.cfg.Clock.Now())
			c.closeConnLocked()
		}
	}
	return &unreachableError{attempts: c.cfg.MaxAttempts, batch: b.ID}
}

// backoff returns the delay before the given retry attempt (attempt
// >= 1): exponential from the base, capped, scaled by a jitter factor
// in [0.5, 1) so a fleet of clients does not retry in lockstep.
func (c *Client) backoff(attempt int) float64 {
	d := backoffBaseSec
	for i := 1; i < attempt && d < backoffMaxSec; i++ {
		d *= 2
	}
	if d > backoffMaxSec {
		d = backoffMaxSec
	}
	return d * (0.5 + 0.5*c.cfg.Jitter.Float64())
}

// spillQueueLocked moves the whole pending load — records and windows —
// into the journal under a fresh batch ID.
func (c *Client) spillQueueLocked() error {
	if c.pendingLocked() == 0 {
		return nil
	}
	if err := c.journalBatchLocked(c.encodePendingLocked()); err != nil {
		return err
	}
	c.clearPendingLocked()
	return nil
}

// journalBatchLocked persists the pending batch, encoded as b, to the
// journal, which keeps b's image: the builder lets go of its buffer and
// builds the next batch in another. The spill is recorded as its own
// span in the batch's ID-keyed trace, so a spill-then-replay batch
// reads as one trace: flush, spill, replay.
func (c *Client) journalBatchLocked(b EncodedBatch) error {
	if err := c.cfg.Journal.appendEncoded(b); err != nil {
		return err
	}
	c.batch.Detach()
	now := c.cfg.Clock.Now()
	c.tracer.RootNamed(b.ID, spanClientSpill, now).
		Attr("records", strconv.Itoa(b.Records)).End(now)
	c.stats.BatchesSpilled++
	c.stats.RecordsSpilled += b.Records
	c.tel.spilled.Inc()
	c.tel.event(c.cfg.Clock.Now(), "eardbd.spill", c.cfg.Node, b.ID, b.Records)
	return nil
}

func (c *Client) closeConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.framed.Reset(nil)
	}
}
