package eardbd_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// runTracedLoop drives the canonical workload with tracing enabled on
// the clients and every shard server, all sharing one span buffer —
// the deployment shape where a scraper reads a merged trace stream.
func runTracedLoop(t *testing.T, nodes, workers, shards int) (*loadgen.Cluster, *trace.Buffer) {
	t.Helper()
	buf := trace.NewBuffer(1 << 14)
	cluster, err := loadgen.NewCluster(shards, eardbd.Config{Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New(loadgen.Config{
		Nodes:    nodes,
		Workers:  workers,
		NodeName: dbdtest.CanonicalNode,
		Trace:    buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(cluster.DialFor, loadgen.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeErrors != 0 || res.BacklogBatches != 0 {
		t.Fatalf("traced feed faulted: %+v", res)
	}
	return cluster, buf
}

// canonicalLines renders the buffer's canonical export as JSON lines.
func canonicalLines(t *testing.T, buf *trace.Buffer) string {
	t.Helper()
	var b strings.Builder
	if err := trace.WriteJSONLines(&b, buf.Canonical()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTraceSingleBatchSpanTree pins the tentpole contract at its
// smallest: one node's reports render as connected trees rooted at
// client.batch spans, with the server-side spans joined through the
// wire trace context — every span's parent is present and shares its
// trace ID, and each stage of the pipeline appears.
func TestTraceSingleBatchSpanTree(t *testing.T) {
	_, buf := runTracedLoop(t, 1, 1, 1)
	spans := buf.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[trace.HexID]trace.Span{}
	kinds := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		kinds[s.Kind]++
	}
	for _, want := range []string{
		"client.batch", "client.send",
		"server.batch", "server.validate", "server.dedup", "server.store", "server.acct",
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s span recorded; kinds = %v", want, kinds)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Kind != "client.batch" {
				t.Errorf("unexpected root span kind %s", s.Kind)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s span %s has missing parent %s", s.Kind, s.ID, s.Parent)
			continue
		}
		if p.Trace != s.Trace {
			t.Errorf("%s span crosses traces: %s under %s", s.Kind, s.Trace, p.Trace)
		}
	}
	// The wire hop: every server.batch must hang off a client.send.
	for _, s := range spans {
		if s.Kind != "server.batch" {
			continue
		}
		if p := byID[s.Parent]; p.Kind != "client.send" {
			t.Errorf("server.batch parented by %q, want client.send", p.Kind)
		}
		if attrs(s)["result"] != "accepted" {
			t.Errorf("server.batch result = %q, want accepted", attrs(s)["result"])
		}
	}
}

// TestTraceWorkerAndShardInvariance is the determinism half of the
// tentpole: the canonical span export of the same workload must be
// byte-identical whatever the feeder worker count and whatever the
// shard count — span identities derive from batch IDs and kinds, not
// from scheduling or placement.
func TestTraceWorkerAndShardInvariance(t *testing.T) {
	const nodes = 8
	_, refBuf := runTracedLoop(t, nodes, 1, 1)
	ref := canonicalLines(t, refBuf)
	if strings.Count(ref, "\n") < nodes {
		t.Fatalf("suspiciously small reference export:\n%s", ref)
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			_, buf := runTracedLoop(t, nodes, workers, shards)
			if got := canonicalLines(t, buf); got != ref {
				t.Fatalf("workers=%d shards=%d canonical export differs:\n--- want\n%s--- got\n%s",
					workers, shards, ref, got)
			}
		}
	}
}

// TestTraceFederationQueryTree checks the read path: a snapshot query
// served by the federation root renders as a fed.query span whose
// fed.fanout children carry their contexts onto the shard daemons, so
// the shards' server.query spans join the root's tree; the merge span
// is annotated with its cache outcome.
func TestTraceFederationQueryTree(t *testing.T) {
	const shards = 2
	cluster, buf := runTracedLoop(t, 8, 4, shards)
	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	// Query over the wire, as earctl would: the in-process accessors
	// deliberately trace nothing, only served frames do.
	cli, err := root.Dial()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := eardbd.Query(cli, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eardbd.Query(cli, wire.Query{Kind: wire.QueryStats}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	// fed.query spans end when the serving loop unwinds, which Close
	// waits for.
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	spans := buf.Spans()
	byID := map[trace.HexID]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var fanouts, joined, merges int
	for _, s := range spans {
		switch s.Kind {
		case "fed.query":
			// How big the answer was rides on the span that served it.
			if attrs(s)["kind"] == wire.QueryAggregate && attrs(s)["bytes"] != fmt.Sprint(1+len(agg.Data)) {
				t.Errorf("fed.query bytes = %q for an aggregate payload of %d", attrs(s)["bytes"], 1+len(agg.Data))
			}
		case "fed.fanout":
			fanouts++
			if p := byID[s.Parent]; p.Kind != "fed.query" && p.Kind != "fed.merge" {
				t.Errorf("fed.fanout parented by %q", p.Kind)
			}
			if attrs(s)["shard"] == "" {
				t.Error("fed.fanout span lacks a shard attribute")
			}
		case "server.query":
			if p := byID[s.Parent]; p.Kind == "fed.fanout" {
				joined++
			}
			if n, err := strconv.Atoi(attrs(s)["bytes"]); err != nil || n < 2 {
				t.Errorf("server.query (%s) bytes = %q", attrs(s)["kind"], attrs(s)["bytes"])
			}
		case "fed.merge":
			merges++
			switch c := attrs(s)["cache"]; c {
			case "hit", "miss":
			default:
				t.Errorf("fed.merge cache attr = %q", c)
			}
		}
	}
	if fanouts < shards {
		t.Errorf("only %d fed.fanout spans for %d shards", fanouts, shards)
	}
	if joined == 0 {
		t.Error("no shard server.query span joined a fed.fanout parent: wire context lost")
	}
	if merges == 0 {
		t.Error("no fed.merge span recorded")
	}
}

// attrs maps a span's attributes by key.
func attrs(s trace.Span) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}
