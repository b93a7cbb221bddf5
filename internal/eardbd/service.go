package eardbd

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Backend is the state snapshot queries are answered from: a daemon's
// live stores, or a federation root's merged view of its shards. Every
// method takes the span of the query being served (nil outside one);
// a root parents its fan-out spans on it, a daemon has no use for it.
type Backend interface {
	// IngestStats returns the ingest activity counters.
	IngestStats(parent *trace.Active) (Stats, error)
	// View returns the state every other query kind is answered from,
	// in one lookup.
	View(parent *trace.Active) (View, error)
	// Generation returns a counter that moves whenever View's contents
	// do, and a stamp per part of View that moves only with that part.
	Generation(parent *trace.Active) (wire.Generation, error)
}

// View is one reading of a backend's state: the node-report database,
// the accounting store, and every node's last reported power sorted by
// node name. All three are read-only to the caller — the power list is
// shared between the queries served from the same state, not copied
// per query.
type View struct {
	DB     *eard.DB
	Acct   *accounting.Store
	Powers []wire.NodePower
}

// Aggregate computes the cluster view: node count and power summed
// over name-sorted nodes, energy summed over (job, step)-sorted
// summaries. A daemon and a root both answer through it, which is what
// makes a federated aggregate bit-identical to a single daemon's.
func (v View) Aggregate() Aggregate {
	agg := Aggregate{Nodes: len(v.Powers), Records: v.DB.Len()}
	for _, np := range v.Powers {
		agg.TotalPowerW += np.PowerW
	}
	for _, sum := range v.DB.Summaries() {
		agg.TotalEnergyJ += sum.EnergyJ
	}
	return agg
}

// Answer computes the result of one snapshot query, from at most one
// lookup of the backend, and encodes it as the payload of a TypeResult
// frame: behind the room of c's image (Conn.Body), with c's string
// table, for c to Send — or, for a nil c, in a fresh payload. A changes
// answer streams: the frames before its last are sent on c as they fill
// (wire.Conn.AppendChanges), and with a nil c one that needs more than
// one frame fails. On error there is nothing to send.
func Answer(c *wire.Conn, b Backend, parent *trace.Active, q wire.Query) ([]byte, error) {
	var dst []byte
	if c != nil {
		dst = c.Body()
	}
	switch q.Kind {
	case wire.QueryStats:
		st, err := b.IngestStats(parent)
		if err != nil {
			return dst, err
		}
		return c.AppendResult(dst, q.Kind, st)
	case wire.QueryGeneration:
		gen, err := b.Generation(parent)
		if err != nil {
			return dst, err
		}
		return wire.AppendGeneration(dst, gen), nil
	case wire.QueryChanges:
		if q.Limit > 0 {
			// Only a daemon keeps the node stamps an answer from a
			// generation is read from. A root refuses one, and its asker
			// asks from zero, which every backend answers from its view.
			srv, ok := b.(*Server)
			if !ok {
				return dst, fmt.Errorf("no changes since generation %d: a root keeps no node stamps", q.Limit)
			}
			return srv.appendChanges(c, dst, uint64(q.Limit))
		}
		fallthrough
	case wire.QueryAggregate, wire.QueryNodePowers, wire.QueryJobs,
		wire.QuerySummary, wire.QueryAcctJobs:
		v, err := b.View(parent)
		if err != nil {
			return dst, err
		}
		return v.answer(c, dst, q)
	default:
		return dst, fmt.Errorf("unknown query kind %q", q.Kind)
	}
}

// answer encodes the result of one state query into dst. The binary
// kinds go through their typed appenders, the ones that carry a store's
// records straight from its rows — a page under the store's lock, the
// whole view a changes query from zero asks for from its pinned rows —
// so a record moves once, from its row into a frame, and nothing is
// boxed in an interface. Only the JSON kinds pass through one.
func (v View) answer(c *wire.Conn, dst []byte, q wire.Query) ([]byte, error) {
	switch q.Kind {
	case wire.QueryAggregate:
		return c.AppendResult(dst, q.Kind, v.Aggregate())
	case wire.QueryNodePowers:
		return c.AppendNodePowers(dst, v.Powers), nil
	case wire.QueryJobs:
		return c.AppendResult(dst, q.Kind, v.DB.Summaries())
	case wire.QuerySummary:
		sum, err := v.DB.Summarize(q.Job, q.Step)
		if err != nil {
			return dst, err
		}
		return c.AppendResult(dst, q.Kind, sum)
	case wire.QueryAcctJobs:
		return c.AppendAcctPage(dst, v.Acct, accounting.Query{
			User:   q.User,
			Job:    q.Job,
			Since:  q.Since,
			Limit:  q.Limit,
			Cursor: q.Cursor,
		})
	default: // wire.QueryChanges from zero: the whole view
		return c.AppendChanges(dst, &wire.Changes{DB: v.DB, AcctStore: v.Acct, Powers: v.Powers})
	}
}

// Watts strips the names off a power list: the eargm.PowerSource shape.
func Watts(nps []wire.NodePower) []float64 {
	out := make([]float64, len(nps))
	for i, np := range nps {
		out[i] = np.PowerW
	}
	return out
}

// Event is something the front end saw on a connection, reported to
// the service behind it for its own counters.
type Event int

const (
	eventConnection Event = iota
	EventQuery
	eventProtocolError
)

// Stopwatch is the optional seconds reading a service stamps spans
// and latency samples with — daemons inject a monotonic wall clock,
// deterministic tests a logical one or none. A nil Stopwatch reads 0
// and observes nothing: spans then carry no timestamps, and the span
// tree itself stays fully deterministic.
type Stopwatch func() float64

// Sec reads the clock, 0 when there is none.
func (w Stopwatch) Sec() float64 {
	if w == nil {
		return 0
	}
	return w()
}

// Observe records the time since startSec in h when there is a clock;
// without one there is nothing meaningful to observe.
func (w Stopwatch) Observe(h *telemetry.Histogram, startSec float64) {
	if w != nil {
		h.Observe(w() - startSec)
	}
}

// Front is the wire front end a shard daemon and a federation root
// share: the connections it accepts from listeners or makes in process,
// all tracked until their handlers return, the per-connection frame
// loop, and query serving. Server and fed.Root each embed one, filling
// in the exported fields — what differs between the two — before first
// use.
type Front struct {
	// Backend answers the snapshot queries.
	Backend Backend
	// Batch handles one batch frame read from c, answers on c, and
	// reports whether the connection stays open. scratch is the
	// connection's decode scratch.
	Batch func(c *wire.Conn, f wire.Frame, scratch *wire.Batch) bool
	// Count records one event in the owner's stats and telemetry.
	Count func(Event)
	// MaxFramePayload caps frames read and written.
	MaxFramePayload int
	// Tracer and QuerySpan record one span of that kind per served
	// query, continuing the context on the query frame; Now stamps it
	// and feeds QueryLatency. All may be nil.
	Tracer       *trace.Tracer
	QuerySpan    string
	Now          Stopwatch
	QueryLatency *telemetry.Histogram
	// Replies counts the payload bytes of answered results by kind, one
	// refused as over the frame limit included, and those refusals
	// (NewReplies).
	Replies Replies

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
}

// Serve accepts connections on l until the listener fails or the
// front end is closed; Close makes it return nil. Each connection is
// handled on its own goroutine.
func (fr *Front) Serve(l net.Listener) error {
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		if err := l.Close(); err != nil {
			return fmt.Errorf("eardbd: close listener of closed service: %w", err)
		}
		return errClosed
	}
	if fr.listeners == nil {
		fr.listeners = map[net.Listener]struct{}{}
	}
	fr.listeners[l] = struct{}{}
	fr.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			fr.mu.Lock()
			closed := fr.closed
			delete(fr.listeners, l)
			fr.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("eardbd: accept: %w", err)
		}
		if !fr.handle(conn) {
			return nil
		}
	}
}

var errClosed = errors.New("eardbd: service is closed")

// Dial opens an in-process connection to the front end: the client end
// of a pipe (net.Pipe's contract, one allocation) whose server end is
// handled exactly as an accepted connection is, so Close severs it and
// waits for its handler. It is the one place an in-process connection
// is born — the seam a test wraps to put faults between every client
// and the service.
func (fr *Front) Dial() (net.Conn, error) {
	client, server := newPipe()
	if !fr.handle(server) {
		return nil, errClosed
	}
	return client, nil
}

// handle registers conn and serves it on its own goroutine until it
// ends, or closes it and reports false when the front end is closed.
func (fr *Front) handle(conn net.Conn) bool {
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		_ = conn.Close()
		return false
	}
	if fr.conns == nil {
		fr.conns = map[net.Conn]struct{}{}
	}
	fr.conns[conn] = struct{}{}
	fr.wg.Add(1)
	fr.mu.Unlock()
	go func() {
		defer fr.wg.Done()
		fr.ServeConn(conn)
		fr.mu.Lock()
		delete(fr.conns, conn)
		fr.mu.Unlock()
	}()
	return true
}

// Conns reports how many connections are being served: those accepted
// or dialled whose handlers have not returned yet.
func (fr *Front) Conns() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.conns)
}

// Close stops all listeners, severs live connections and waits for
// their handlers.
func (fr *Front) Close() error {
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		return nil
	}
	fr.closed = true
	var firstErr error
	for l := range fr.listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for c := range fr.conns {
		// A handler that is hanging up at this moment closes the
		// connection itself; losing that race is not a failure to close.
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	fr.mu.Unlock()
	fr.wg.Wait()
	return firstErr
}

// connState is what serving a connection takes beyond the connection:
// its framing state — the read buffer frames arrive in, the image acks
// and results are built in, the string table a fleet-sized result is
// encoded with, the literal block and last table batches decode with —
// and the batch decode scratch.
type connState struct {
	wire.Conn
	scratch wire.Batch
}

// batchPool recycles connection state across connections: node daemons
// that connect, report one batch and hang up would otherwise pay for a
// fresh read buffer, ack buffer, literal block and record slices every
// time.
var batchPool = sync.Pool{New: func() any { return new(connState) }}

// ServeConn speaks the wire protocol on one connection until EOF or a
// protocol error, then closes it. Serve and Dial run it for every
// connection they own; it is exported for a caller that brings a
// transport of its own and answers for its lifetime itself.
func (fr *Front) ServeConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	fr.Count(eventConnection)
	// Records are stored by value and every frame is handled before the
	// next is read, so each batch may arrive in the buffer and decode
	// into the backing arrays an earlier one — of this connection or a
	// finished one — left behind, and each reply be built where the last
	// one was.
	st := batchPool.Get().(*connState)
	st.MaxPayload = fr.MaxFramePayload
	st.Reset(conn)
	defer func() {
		st.Reset(nil)
		batchPool.Put(st)
	}()
	c := &st.Conn
	for {
		f, err := c.Read()
		if err != nil {
			// A peer hanging up between frames (EOF, or a closed pipe in
			// simulated transports) is a normal disconnect, not a protocol
			// violation.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
				fr.protocolError(c, err.Error())
			}
			return
		}
		switch f.Type {
		case wire.TypeBatch:
			if !fr.Batch(c, f, &st.scratch) {
				return
			}
		case wire.TypeQuery:
			if !fr.serveQuery(c, f) {
				return
			}
		default:
			fr.protocolError(c, fmt.Sprintf("unexpected %s frame", f.Type))
			return
		}
	}
}

// serveQuery answers one snapshot query and reports whether the
// connection should stay open. The result is built in the connection's
// image, which makes a served payload valid until the connection's next
// reply and no longer. When tracing is on, the serving renders as one
// span of the owner's query kind, continuing the caller's frame
// context; whatever the backend fans out hangs below it.
func (fr *Front) serveQuery(c *wire.Conn, f wire.Frame) bool {
	t0 := fr.Now.Sec()
	q, err := c.DecodeQuery(f)
	if err != nil {
		fr.protocolError(c, err.Error())
		return false
	}
	sp := fr.Tracer.Remote(f.Trace, fr.QuerySpan, t0)
	sp.Attr("kind", string(q.Kind))
	fr.Count(EventQuery)
	image, err := Answer(c, fr.Backend, sp, q)
	if err == nil {
		// Counted, timed and traced before the last frame leaves: the
		// asker may read the counters, the latency and the span as soon
		// as it has the answer.
		payload := image[wire.HeaderRoom:]
		n := len(payload)
		if q.Kind == wire.QueryChanges {
			n += c.Streamed()
		}
		fr.Replies.count(payload, n)
		if sp != nil {
			sp.Attr("bytes", strconv.Itoa(n))
		}
		fr.endQuery(sp, t0)
		if err = c.Send(wire.TypeResult, trace.Context{}, image); err == nil {
			return true
		}
		if !errors.Is(err, wire.ErrTooLarge) {
			return false // the peer is gone
		}
	} else {
		fr.endQuery(sp, t0)
		if errors.Is(err, wire.ErrStreamCut) {
			return false // a part of the answer failed on the transport
		}
	}
	// A query the backend cannot answer is the caller's problem, not the
	// connection's: it stays open. So does one whose answer (a one-frame
	// kind, or a single record of a changes answer) is past the frame
	// limit: refused before a byte of that frame was written, the
	// connection is still in step, and the asker gets the size and the
	// limit, not a hang-up.
	fr.Replies.refused(q.Kind, err)
	fr.ReplyError(c, err.Error())
	return true
}

// endQuery ends a served query's span and observes its latency, once,
// before the last frame of its answer or error leaves.
func (fr *Front) endQuery(sp *trace.Active, t0 float64) {
	sp.End(fr.Now.Sec())
	fr.Now.Observe(fr.QueryLatency, t0)
}

// protocolError counts a violation and tells the peer; the caller
// hangs up.
func (fr *Front) protocolError(c *wire.Conn, msg string) {
	fr.Count(eventProtocolError)
	fr.ReplyError(c, msg)
}

// ReplyError best-effort sends an error frame: a failed write means the
// peer is gone, which its next read tells the frame loop.
func (fr *Front) ReplyError(c *wire.Conn, msg string) {
	_ = c.Send(wire.TypeError, trace.Context{}, wire.AppendError(c.Body(), msg))
}
