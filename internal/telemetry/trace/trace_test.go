package trace

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	root := tr.Root("a.b", 0)
	if root != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// Every span method must be a no-op on nil.
	root.Attr("k", "v")
	child := root.Child("a.c", 1)
	if child != nil {
		t.Fatal("nil span must hand out nil children")
	}
	child.End(2)
	root.End(2)
	if ctx := root.Context(); ctx.Valid() {
		t.Fatal("nil span context must be invalid")
	}
	if New("x", nil) != nil {
		t.Fatal("New with nil buffer must return a nil tracer")
	}

	var b *Buffer
	if b.Len() != 0 || b.Dropped() != 0 || b.Spans() != nil || b.Canonical() != nil {
		t.Fatal("nil buffer accessors must be empty")
	}
	rr := httptest.NewRecorder()
	b.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if rr.Code != 200 || rr.Body.Len() != 0 {
		t.Fatalf("nil buffer handler: code %d body %q", rr.Code, rr.Body.String())
	}
}

func TestDeterministicIDs(t *testing.T) {
	mint := func() (Context, Context, Context) {
		buf := NewBuffer(0)
		tr := New("client", buf)
		root := tr.RootNamed("n01/7", "client.batch", 1)
		send := root.Child("client.send", 2)
		srv := New("eardbd", NewBuffer(0)).Remote(send.Context(), "server.batch", 0)
		return root.Context(), send.Context(), srv.Context()
	}
	r1, s1, v1 := mint()
	r2, s2, v2 := mint()
	if r1 != r2 || s1 != s2 || v1 != v2 {
		t.Fatalf("IDs differ across identical runs: %v/%v/%v vs %v/%v/%v", r1, s1, v1, r2, s2, v2)
	}
	if r1.TraceID == 0 || s1.SpanID == 0 || s1.SpanID == r1.SpanID {
		t.Fatalf("degenerate IDs: root %+v send %+v", r1, s1)
	}
	if s1.TraceID != r1.TraceID || v1.TraceID != r1.TraceID {
		t.Fatal("children and remote spans must share the root's trace ID")
	}
	// A second tracer minting the same named root joins the same trace:
	// that is what lets a journal replay rejoin its batch's tree.
	other := New("client", NewBuffer(0)).RootNamed("n01/7", "client.batch", 9)
	if other.Context() != r1 {
		t.Fatalf("RootNamed is not placement-independent: %v vs %v", other.Context(), r1)
	}
}

func TestChildIndexDisambiguates(t *testing.T) {
	tr := New("fed", NewBuffer(0))
	root := tr.Root("fed.query", 0)
	a := root.Child("fed.fanout", 0)
	b := root.Child("fed.fanout", 0)
	if a.Context().SpanID == b.Context().SpanID {
		t.Fatal("same-kind siblings must have distinct span IDs")
	}
}

func TestBufferRingAndSince(t *testing.T) {
	buf := NewBuffer(4)
	tr := New("t", buf)
	for i := 0; i < 6; i++ {
		tr.Root("a.b", float64(i)).End(float64(i))
	}
	if buf.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", buf.Len())
	}
	if buf.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", buf.Dropped())
	}
	spans := buf.Spans()
	if spans[0].Seq != 3 || spans[3].Seq != 6 {
		t.Fatalf("ring kept seqs %d..%d, want 3..6", spans[0].Seq, spans[3].Seq)
	}
	since := buf.ring().Since(4)
	if len(since) != 2 || since[0].Seq != 5 {
		t.Fatalf("since 4: %+v", since)
	}
	if got := buf.ring().Since(99); len(got) != 0 {
		t.Fatalf("since past the end: %+v", got)
	}
}

func TestCanonicalIsArrivalOrderIndependent(t *testing.T) {
	build := func(reverse bool) []byte {
		buf := NewBuffer(0)
		tr := New("client", buf)
		roots := []*Active{
			tr.RootNamed("n01/1", "client.batch", 1),
			tr.RootNamed("n02/1", "client.batch", 1),
		}
		// End in opposite orders: arrival order differs, content does not.
		if reverse {
			roots[1].End(2)
			roots[0].End(2)
		} else {
			roots[0].End(2)
			roots[1].End(2)
		}
		var out bytes.Buffer
		if err := WriteJSONLines(&out, buf.Canonical()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("canonical export depends on arrival order")
	}
}

func TestHandlerFilters(t *testing.T) {
	buf := NewBuffer(0)
	tr := New("client", buf)
	b1 := tr.RootNamed("n01/1", "client.batch", 1)
	b1.Child("client.send", 1).End(2)
	b1.End(2)
	q := tr.Root("fed.query", 3)
	q.Attr("cache", "hit").End(4)

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		buf.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}

	rr := get("/traces")
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if rr.Header().Get(DroppedHeader) != "0" {
		t.Fatalf("dropped header %q", rr.Header().Get(DroppedHeader))
	}
	if n := strings.Count(rr.Body.String(), "\n"); n != 3 {
		t.Fatalf("unfiltered lines = %d, want 3:\n%s", n, rr.Body.String())
	}
	if strings.Contains(rr.Body.String(), `"seq"`) {
		t.Fatal("canonical output must not carry arrival sequence numbers")
	}

	tid := b1.Context().TraceID
	rr = get("/traces?trace=" + HexID(tid).String())
	if n := strings.Count(rr.Body.String(), "\n"); n != 2 {
		t.Fatalf("trace-filtered lines = %d, want 2:\n%s", n, rr.Body.String())
	}

	rr = get("/traces?kind=client.send")
	if n := strings.Count(rr.Body.String(), "\n"); n != 1 {
		t.Fatalf("kind-filtered lines = %d, want 1:\n%s", n, rr.Body.String())
	}
	// Prefix matching stops at dot boundaries.
	rr = get("/traces?kind=client")
	if n := strings.Count(rr.Body.String(), "\n"); n != 2 {
		t.Fatalf("kind-prefix lines = %d, want 2:\n%s", n, rr.Body.String())
	}
	rr = get("/traces?kind=clie")
	if rr.Body.Len() != 0 {
		t.Fatalf("non-boundary prefix matched:\n%s", rr.Body.String())
	}

	rr = get("/traces?since=2")
	if n := strings.Count(rr.Body.String(), "\n"); n != 1 {
		t.Fatalf("since-filtered lines = %d, want 1:\n%s", n, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), `"seq":3`) {
		t.Fatalf("since output must keep sequence numbers:\n%s", rr.Body.String())
	}

	if rr := get("/traces?since=zzz"); rr.Code != 400 {
		t.Fatalf("bad since: code %d", rr.Code)
	}
	if rr := get("/traces?trace=notahex"); rr.Code != 400 {
		t.Fatalf("bad trace: code %d", rr.Code)
	}
}

func TestHexIDRoundTrip(t *testing.T) {
	var h HexID = 0xdeadbeef
	j, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j) != `"00000000deadbeef"` {
		t.Fatalf("marshal = %s", j)
	}
	var back HexID
	if err := back.UnmarshalJSON(j); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip = %v", back)
	}
	if err := back.UnmarshalJSON([]byte(`"xyz"`)); err == nil {
		t.Fatal("bad hex must not parse")
	}
}

func TestEndTwiceRecordsOnce(t *testing.T) {
	buf := NewBuffer(0)
	sp := New("t", buf).Root("a.b", 0)
	sp.End(1)
	sp.End(2)
	if buf.Len() != 1 {
		t.Fatalf("len = %d, want 1", buf.Len())
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.RootNamed("n01/1", "client.batch", 0)
		sp.Child("client.send", 0).End(0)
		sp.End(0)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New("client", NewBuffer(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.RootNamed("n01/1", "client.batch", 0)
		sp.Child("client.send", 0).End(0)
		sp.End(0)
	}
}
