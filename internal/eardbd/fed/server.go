package fed

import (
	"errors"
	"fmt"
	"io"
	"net"

	"goear/internal/accounting"
	"goear/internal/wire"
)

// Serve accepts connections on l until the listener fails or the root
// is closed; Close makes it return nil. The root speaks the same wire
// protocol as a shard daemon, so earctl dbd and eargm feeds point at
// either interchangeably.
func (r *Root) Serve(l net.Listener) error {
	r.connMu.Lock()
	if r.closed {
		r.connMu.Unlock()
		if err := l.Close(); err != nil {
			return fmt.Errorf("fed: close listener of closed root: %w", err)
		}
		return errors.New("fed: root is closed")
	}
	r.listeners[l] = struct{}{}
	r.connMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			r.connMu.Lock()
			closed := r.closed
			delete(r.listeners, l)
			r.connMu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("fed: accept: %w", err)
		}
		r.connMu.Lock()
		if r.closed {
			r.connMu.Unlock()
			_ = conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.wg.Add(1)
		r.connMu.Unlock()
		go func() {
			defer r.wg.Done()
			r.ServeConn(conn)
			r.connMu.Lock()
			delete(r.conns, conn)
			r.connMu.Unlock()
		}()
	}
}

// Close stops all listeners, severs live connections and waits for
// their handlers.
func (r *Root) Close() error {
	r.connMu.Lock()
	if r.closed {
		r.connMu.Unlock()
		return nil
	}
	r.closed = true
	var firstErr error
	for l := range r.listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for c := range r.conns {
		// A handler that is hanging up at this moment closes the
		// connection itself; losing that race is not a failure to close.
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	r.connMu.Unlock()
	r.wg.Wait()
	return firstErr
}

// ServeConn answers snapshot queries on one connection until EOF or a
// protocol violation, then closes it. Batches are refused: reports go
// to the shard that owns the node (ring placement), never through the
// root — the root is a read path, and keeping it so means a root
// outage can never lose accounting data.
func (r *Root) ServeConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	for {
		f, err := wire.ReadFrame(conn, r.cfg.MaxFramePayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
				r.reply(conn, mustError(err.Error()))
			}
			return
		}
		switch f.Type {
		case wire.TypeQuery:
			if !r.handleQuery(conn, f) {
				return
			}
		case wire.TypeBatch:
			r.reply(conn, mustError("federation root does not accept batches; report to the owning shard"))
			return
		default:
			r.reply(conn, mustError(fmt.Sprintf("unexpected %s frame", f.Type)))
			return
		}
	}
}

// handleQuery fans one snapshot query out to the shards and replies
// with the merged view. It reports whether the connection should stay
// open. When tracing is on, the serving renders as a fed.query span —
// continuing the caller's frame context — whose fed.fanout children
// carry their contexts onto the shard query frames, so one served
// query reads as a connected tree from the caller through the root to
// every shard daemon.
func (r *Root) handleQuery(conn net.Conn, f wire.Frame) bool {
	t0 := r.nowSec()
	q, err := f.AsQuery()
	if err != nil {
		r.reply(conn, mustError(err.Error()))
		return false
	}
	sp := r.tracer.Remote(f.Trace, spanFedQuery, t0)
	sp.Attr("kind", string(q.Kind))
	defer func() {
		sp.End(r.nowSec())
		r.observe(r.tel.latQuery, t0)
	}()
	r.mu.Lock()
	r.stats.Queries++
	r.mu.Unlock()
	r.tel.queries.Inc()
	var resp wire.Frame
	switch q.Kind {
	case wire.QueryStats:
		var sum any
		sum, err = r.mergedStats(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sum)
		}
	case wire.QueryAggregate:
		var agg any
		agg, err = r.aggregate(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, agg)
		}
	case wire.QueryJobs:
		var sums any
		sums, err = r.jobSummaries(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sums)
		}
	case wire.QueryNodePowers:
		var nps any
		nps, err = r.mergedNodePowers(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, nps)
		}
	case wire.QueryRecords:
		db, qerr := r.mergedDB(sp)
		err = qerr
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, db.Records())
		}
	case wire.QuerySummary:
		var sum any
		sum, err = r.summarize(sp, q.Job, q.Step)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sum)
		}
	case wire.QueryAcctJobs:
		var page any
		page, err = r.acctQuery(sp, accounting.Query{
			User:   q.User,
			Job:    q.Job,
			Since:  q.Since,
			Limit:  q.Limit,
			Cursor: q.Cursor,
		})
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, page)
		}
	case wire.QueryAcctRecords:
		var recs any
		recs, err = r.acctRecords(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, recs)
		}
	case wire.QueryGeneration:
		var gen uint64
		gen, err = r.generation(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, wire.Generation{Gen: gen})
		}
	default:
		r.reply(conn, mustError(fmt.Sprintf("unknown query kind %q", q.Kind)))
		return true
	}
	if err != nil {
		r.reply(conn, mustError(err.Error()))
		return true
	}
	return r.reply(conn, resp)
}

// reply best-effort writes a frame; a failed write means the peer is
// gone, which the caller treats as connection end.
func (r *Root) reply(conn net.Conn, f wire.Frame) bool {
	return wire.WriteFrame(conn, f, r.cfg.MaxFramePayload) == nil
}

// mustError encodes an error frame; encoding a plain string cannot
// fail.
func mustError(msg string) wire.Frame {
	f, err := wire.EncodeError(msg)
	if err != nil {
		panic(err)
	}
	return f
}
