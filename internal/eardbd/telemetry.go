package eardbd

import (
	"errors"

	"goear/internal/telemetry"
	"goear/internal/wire"
)

// Metric names. Server- and client-side families are distinct so one
// process hosting both (tests, simulations) keeps them apart.
const (
	metricDBDConnections = "goear_eardbd_connections_total"
	metricDBDBatches     = "goear_eardbd_batches_total"
	metricDBDRecords     = "goear_eardbd_records_total"
	metricDBDProtoErrors = "goear_eardbd_protocol_errors_total"
	metricDBDQueries     = "goear_eardbd_queries_total"
	metricDBDReplyBytes  = "goear_eardbd_reply_bytes_total"

	metricDBDRepliesRefused = "goear_eardbd_replies_refused_total"

	metricDBDClientFlushes     = "goear_eardbd_client_flushes_total"
	metricDBDClientBatchesSent = "goear_eardbd_client_batches_sent_total"
	metricDBDClientRecordsSent = "goear_eardbd_client_records_sent_total"
	metricDBDClientRetries     = "goear_eardbd_client_retries_total"
	metricDBDClientRedials     = "goear_eardbd_client_redials_total"
	metricDBDClientSpilled     = "goear_eardbd_client_batches_spilled_total"
	metricDBDClientReplayed    = "goear_eardbd_client_batches_replayed_total"
	metricDBDClientRejected    = "goear_eardbd_client_batches_rejected_total"
	metricDBDClientDropped     = "goear_eardbd_client_records_dropped_total"
	metricDBDClientBackoff     = "goear_eardbd_client_backoff_seconds"

	metricDBDLatency       = "goear_eardbd_latency_seconds"
	metricDBDClientLatency = "goear_eardbd_client_latency_seconds"
)

// Span kinds. The server side continues the trace context arriving on
// the wire frame; the client side roots each batch trace by batch ID,
// so a replayed batch rejoins the trace its spill started.
const (
	spanServerBatch    = "server.batch"
	spanServerValidate = "server.validate"
	spanServerDedup    = "server.dedup"
	spanServerStore    = "server.store"
	spanServerAcct     = "server.acct"
	spanServerQuery    = "server.query"

	spanClientBatch   = "client.batch"
	spanClientSend    = "client.send"
	spanClientBackoff = "client.backoff"
	spanClientSpill   = "client.spill"
	spanClientReplay  = "client.replay"
)

// backoffBounds buckets client backoff sleeps in seconds, spanning the
// default schedule (base 0.5 s doubling to the 30 s cap, jittered down
// to half).
var backoffBounds = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 30}

// latencyBounds buckets per-operation latencies in seconds, from
// in-process round trips (tens of microseconds) up to WAN-and-retry
// territory.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// LatencyBounds exposes the shared per-operation latency buckets so
// the federation and load-generation tiers register histogram
// families with identical shape (the registry requires it when they
// share one Set).
func LatencyBounds() []float64 {
	return append([]float64(nil), latencyBounds...)
}

// serverTel is a server's pre-resolved instrument bundle. Handles are
// resolved once in NewServer; with telemetry absent every field is nil
// and each use is a nil-receiver no-op. The registry's get-or-create
// family semantics let several servers (or servers and clients) share
// one Set: they fold into the same series.
type serverTel struct {
	conns      *telemetry.Counter
	batchOK    *telemetry.Counter // result="accepted"
	batchDup   *telemetry.Counter // result="duplicate" (dedup-window hit)
	batchRej   *telemetry.Counter // result="rejected"
	recAccept  *telemetry.Counter // result="accepted"
	recDup     *telemetry.Counter // result="duplicate"
	recReplace *telemetry.Counter // result="replaced"
	protoErrs  *telemetry.Counter
	queries    *telemetry.Counter
	latBatch   *telemetry.Histogram // op="batch"
	latQuery   *telemetry.Histogram // op="query"
	rec        *telemetry.Recorder
}

func newServerTel(s *telemetry.Set) serverTel {
	r := s.Reg()
	batches := r.CounterVec(metricDBDBatches, "batches handled by outcome", "result")
	records := r.CounterVec(metricDBDRecords, "records folded into the database by outcome", "result")
	latency := r.HistogramVec(metricDBDLatency, "server handling latency by wire op, seconds", latencyBounds, "op")
	return serverTel{
		conns:      r.Counter(metricDBDConnections, "connections accepted"),
		batchOK:    batches.With("accepted"),
		batchDup:   batches.With("duplicate"),
		batchRej:   batches.With("rejected"),
		recAccept:  records.With("accepted"),
		recDup:     records.With("duplicate"),
		recReplace: records.With("replaced"),
		protoErrs:  r.Counter(metricDBDProtoErrors, "malformed frames and internal store failures"),
		queries:    r.Counter(metricDBDQueries, "snapshot queries answered"),
		latBatch:   latency.With("batch"),
		latQuery:   latency.With("query"),
		rec:        s.Rec(),
	}
}

// Replies counts what a daemon or root serves, readable live: the
// payload bytes of the answers by kind, and the answers refused as past
// the frame limit, each also an event naming the kind, the size and the
// limit. Served bytes are indexed by the kind byte a result payload
// starts with, so counting a reply is an array load and an add. The
// zero value counts nothing.
type Replies struct {
	bytes   []*telemetry.Counter
	refusal *telemetry.CounterVec
	rec     *telemetry.Recorder
}

// NewReplies resolves one counter per result kind in s (nil: every
// counter is a no-op); a changes answer's parts count as changes. A
// shard daemon and a root sharing one set fold into the same series, as
// their query counters do.
func NewReplies(s *telemetry.Set) Replies {
	vec := s.Reg().CounterVec(metricDBDReplyBytes, "result payload bytes served, by result kind", "kind")
	refusal := s.Reg().CounterVec(metricDBDRepliesRefused, "answers refused as past the frame limit, by query kind", "kind")
	if vec == nil {
		return Replies{}
	}
	kinds := wire.ResultKinds()
	out := Replies{bytes: make([]*telemetry.Counter, len(kinds)), refusal: refusal, rec: s.Rec()}
	for code, kind := range kinds {
		switch kind {
		case "":
		case wire.ChangesPart:
			out.bytes[code] = vec.With(wire.QueryChanges)
		default:
			out.bytes[code] = vec.With(kind)
		}
	}
	return out
}

// count adds n bytes served under the kind payload starts with.
func (rp Replies) count(payload []byte, n int) {
	if len(payload) > 0 && int(payload[0]) < len(rp.bytes) {
		rp.bytes[payload[0]].Add(uint64(n))
	}
}

// refused counts an answer to a kind query that err refused as past
// the frame limit, and records it; any other error is not counted.
func (rp Replies) refused(kind string, err error) {
	var size *wire.SizeError
	if rp.refusal == nil || !errors.As(err, &size) {
		return
	}
	rp.refusal.With(kind).Inc()
	rp.rec.Record(telemetry.Event{
		Kind: "eardbd.refused",
		Str:  map[string]string{"kind": kind},
		Num:  map[string]float64{"bytes": float64(size.Size), "limit": float64(size.Limit)},
	})
}

// LatencySLO registers the server's per-op latency histograms with an
// SLO summary so daemons can report objective conformance. Targets
// are p99 seconds; zero means "report, no objective". A nil server or
// SLO is a no-op.
func (s *Server) LatencySLO(slo *telemetry.SLO, batchTargetP99, queryTargetP99 float64) {
	if s == nil {
		return
	}
	slo.Register("batch", s.tel.latBatch, batchTargetP99)
	slo.Register("query", s.tel.latQuery, queryTargetP99)
}

// batchEvent records one batch outcome in the event log. The daemon
// has no injected clock (wall time is banned repo-wide), so events
// carry no timestamp; the recorder's sequence numbers order them.
func (t serverTel) batchEvent(node, id, result string, ack *int3) {
	if t.rec == nil {
		return
	}
	ev := telemetry.Event{
		Kind: "eardbd.batch",
		Src:  node,
		Str:  map[string]string{"result": result},
	}
	if id != "" {
		ev.Str["id"] = id
	}
	if ack != nil {
		ev.Num = map[string]float64{
			"accepted":  float64(ack.a),
			"duplicate": float64(ack.b),
			"replaced":  float64(ack.c),
		}
	}
	t.rec.Record(ev)
}

// int3 carries a batch ack's three record counts to batchEvent without
// importing wire types here.
type int3 struct{ a, b, c int }

// clientTel is a client's pre-resolved instrument bundle; same nil
// no-op semantics as serverTel.
type clientTel struct {
	flushes  *telemetry.Counter
	sent     *telemetry.Counter
	recSent  *telemetry.Counter
	retries  *telemetry.Counter
	redials  *telemetry.Counter
	spilled  *telemetry.Counter
	replayed *telemetry.Counter
	rejected *telemetry.Counter
	dropped  *telemetry.Counter
	backoff  *telemetry.Histogram
	latSend  *telemetry.Histogram // op="send": client-observed batch RTT
	rec      *telemetry.Recorder
}

func newClientTel(s *telemetry.Set) clientTel {
	r := s.Reg()
	if r == nil {
		// Nothing to resolve; the label list below would still escape.
		return clientTel{rec: s.Rec()}
	}
	latency := r.HistogramVec(metricDBDClientLatency, "client-observed latency by wire op, seconds", latencyBounds, "op")
	return clientTel{
		flushes:  r.Counter(metricDBDClientFlushes, "flush cycles started"),
		sent:     r.Counter(metricDBDClientBatchesSent, "batches acked by the daemon"),
		recSent:  r.Counter(metricDBDClientRecordsSent, "records acked by the daemon"),
		retries:  r.Counter(metricDBDClientRetries, "delivery retries after a failed attempt"),
		redials:  r.Counter(metricDBDClientRedials, "connections (re)established to the daemon"),
		spilled:  r.Counter(metricDBDClientSpilled, "batches spilled to the journal"),
		replayed: r.Counter(metricDBDClientReplayed, "journaled batches redelivered and acked"),
		rejected: r.Counter(metricDBDClientRejected, "batches dropped on permanent server rejection"),
		dropped:  r.Counter(metricDBDClientDropped, "records lost to queue overflow or rejection"),
		backoff:  r.Histogram(metricDBDClientBackoff, "backoff sleep before a retry, seconds", backoffBounds),
		latSend:  latency.With("send"),
		rec:      s.Rec(),
	}
}

// event records one client-side event stamped with the injected clock.
func (t clientTel) event(now float64, kind, node, id string, records int) {
	if t.rec == nil {
		return
	}
	t.rec.Record(telemetry.Event{
		TimeSec: now,
		Kind:    kind,
		Src:     node,
		Str:     map[string]string{"id": id},
		Num:     map[string]float64{"records": float64(records)},
	})
}
