// Package trace is the repo's stdlib-only distributed-tracing layer,
// built in the spirit of package telemetry: alloc-free when disabled,
// nil-safe everywhere, and deterministic by construction. Span and
// trace identifiers are never drawn from wall time or math/rand —
// they are FNV-1a hashes of stable names (a batch ID, a span kind, a
// per-parent child index), so the span tree a workload produces is a
// pure function of the traffic, byte-identical across worker counts,
// shard placements and reruns. Timestamps on spans come from injected
// clocks only; a component without a clock records zero times and the
// tree structure still stands.
//
// The unit is a span: one timed operation with a kind (dot-separated
// lowercase, e.g. "client.send"), a source, optional attributes, and
// a parent. Spans of one request share a trace ID; a compact Context
// (trace ID, span ID, flags) travels across process boundaries inside
// the wire protocol's optional trace frame field, so a record batch
// can be followed from the reporting client through the shard daemon
// to the federation root as one connected tree.
//
// Ended spans land in a bounded ring Buffer with JSON-lines export
// and an HTTP /traces handler (see buffer.go, http.go).
package trace

import (
	"fmt"
	"sync/atomic"
)

// Context is the compact cross-process form of a span: what rides a
// wire frame. The zero Context means "no trace"; a real context
// always has a non-zero trace ID.
type Context struct {
	TraceID uint64
	SpanID  uint64
	Flags   uint8
}

// Valid reports whether the context names a real trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Tracer mints spans for one source (a component name such as
// "fedroot" or "eardbd"). A nil Tracer is valid and hands out nil
// spans, so a disabled pipeline costs one nil check per operation and
// zero allocations.
type Tracer struct {
	src string
	buf *Buffer
	seq atomic.Uint64
}

// New returns a tracer recording into buf, or nil when buf is nil —
// the disabled form callers store and use without branching.
func New(src string, buf *Buffer) *Tracer {
	if buf == nil {
		return nil
	}
	return &Tracer{src: src, buf: buf}
}

// Identifiers derive from names and counters through 64-bit FNV-1a so
// every process in a deployment mints the same IDs for the same
// logical operation. The hash is folded incrementally (hashInit →
// hashString/hashU64 → hashDone) rather than over materialised byte
// slices, keeping span creation allocation-free; the byte sequence
// fed to the hash is unchanged, so IDs are stable across versions.
const (
	hashInit        = uint64(14695981039346656037)
	fnvPrime uint64 = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// hashDone remaps the one zero collision: zero is the "absent"
// sentinel in contexts and parents.
func hashDone(h uint64) uint64 {
	if h == 0 {
		return fnvPrime
	}
	return h
}

// Root starts a trace whose identity derives from the tracer's source
// and a per-tracer sequence number: the form for operations with no
// natural global name (ad-hoc queries, control intervals). Roots from
// one tracer are deterministic in issue order.
func (t *Tracer) Root(kind string, now float64) *Active {
	if t == nil {
		return nil
	}
	seq := t.seq.Add(1)
	tid := hashDone(hashU64(hashString(hashInit, t.src), seq))
	return t.start(tid, 0, kind, now)
}

// RootNamed starts a trace whose identity derives from a globally
// unique operation name — for batches, the batch ID. Every process
// that names the same operation joins the same trace: a journal
// replay of batch "n01/7" lands in the trace the original flush
// started, whatever process or worker replays it.
func (t *Tracer) RootNamed(name, kind string, now float64) *Active {
	if t == nil {
		return nil
	}
	tid := hashDone(hashString(hashInit, name))
	return t.start(tid, 0, kind, now)
}

// Remote continues a trace received from a peer: the new span's
// parent is the context's span. An invalid context degrades to a
// fresh Root so a peer without tracing still yields a local tree.
func (t *Tracer) Remote(ctx Context, kind string, now float64) *Active {
	if t == nil {
		return nil
	}
	if !ctx.Valid() {
		return t.Root(kind, now)
	}
	return t.start(ctx.TraceID, ctx.SpanID, kind, now)
}

// checkKind panics unless kind is dotted lowercase,
// ^[a-z]+(\.[a-z_]+)+$: the shape the /traces kind filter matches on
// dot boundaries. Like the telemetry registry's name check it refuses
// a bad name where it enters.
func checkKind(kind string) {
	if !kindOK(kind) {
		panic(fmt.Sprintf("trace: span kind %q must match ^[a-z]+(\\.[a-z_]+)+$", kind))
	}
}

// kindOK is the span-kind shape as a byte loop: it runs per span, so
// it neither allocates nor pulls in regexp.
func kindOK(kind string) bool {
	dots, seg := 0, 0
	for i := 0; i < len(kind); i++ {
		switch c := kind[i]; {
		case c >= 'a' && c <= 'z', c == '_' && dots > 0:
			seg++
		case c == '.' && seg > 0:
			dots, seg = dots+1, 0
		default:
			return false
		}
	}
	return dots > 0 && seg > 0
}

// start mints the span. The span ID hashes (trace, parent, source,
// kind): deterministic, and stable under redelivery — a replayed
// remote span re-derives the identical ID instead of forking the
// tree.
func (t *Tracer) start(traceID, parentID uint64, kind string, now float64) *Active {
	checkKind(kind)
	id := hashDone(hashString(hashString(hashU64(hashU64(hashInit, traceID), parentID), t.src), kind))
	return &Active{
		tracer: t,
		span: Span{
			Trace:  HexID(traceID),
			ID:     HexID(id),
			Parent: HexID(parentID),
			Kind:   kind,
			Src:    t.src,
			Start:  now,
		},
	}
}

// Active is a span in progress. All methods are nil-safe no-ops, so
// instrumented code never branches on whether tracing is enabled. An
// Active is owned by one goroutine at a time (hand-off is fine,
// concurrent use is not), matching how an operation's code path owns
// its span.
type Active struct {
	tracer *Tracer
	span   Span
	kids   uint64
	ended  bool
}

// Context returns the cross-process form of the span, the zero
// Context on nil.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{TraceID: uint64(a.span.Trace), SpanID: uint64(a.span.ID)}
}

// Child starts a sub-span. Its ID folds in a per-parent child index,
// so several children of one kind (the fan-out's per-shard queries)
// stay distinct while remaining deterministic in creation order.
func (a *Active) Child(kind string, now float64) *Active {
	if a == nil {
		return nil
	}
	checkKind(kind)
	a.kids++
	t := a.tracer
	id := hashDone(hashU64(hashString(hashString(hashU64(hashU64(hashInit, uint64(a.span.Trace)), uint64(a.span.ID)), t.src), kind), a.kids))
	return &Active{
		tracer: t,
		span: Span{
			Trace:  a.span.Trace,
			ID:     HexID(id),
			Parent: a.span.ID,
			Kind:   kind,
			Src:    t.src,
			Start:  now,
		},
	}
}

// Attr attaches one string attribute, last write per key wins.
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	for i := range a.span.Attrs {
		if a.span.Attrs[i].Key == key {
			a.span.Attrs[i].Value = value
			return a
		}
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(Attrs, 0, 4)
	}
	a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
	return a
}

// End closes the span and records it in the tracer's buffer. Ending
// twice records once.
func (a *Active) End(now float64) {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.End = now
	a.tracer.buf.record(a.span)
}
