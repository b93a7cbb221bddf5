package eardbd

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"goear/internal/eard"
	"goear/internal/eargm"
	"goear/internal/par"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// metricsMap renders a set's registry and parses it back into a
// name+labels → value map, exercising the exposition round trip on the
// way.
func metricsMap(t *testing.T, set *telemetry.Set) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := set.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name+s.Labels] = s.Value
	}
	return out
}

// TestTelemetryJournalReplayKnownCounts replays the journal-spill
// scenario of TestJournalSpillAndReplayExactlyOnce with an instance
// telemetry set shared by client and server, and pins every counter to
// the count the scenario is known to produce:
//
//	flush 1: attempt 1 delivers (server accepts 4 records), ack lost;
//	         retry redelivers under the same ID (duplicate batch,
//	         4 duplicate records), ack lost; batch spills.
//	flush 2: replay redelivers (duplicate again), ack arrives.
func TestTelemetryJournalReplayKnownCounts(t *testing.T) {
	set := telemetry.NewSet()
	db := eard.NewDB()
	srv := NewServer(db, Config{Telemetry: set})
	drops := &atomic.Int32{}
	drops.Store(99) // every ack write fails: daemon is effectively down
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Node:         "n01",
		Dial:         ackDropDialer(srv, drops),
		Clock:        NewFakeClock(0),
		Jitter:       rand.New(rand.NewSource(42)),
		BatchRecords: 4, MaxAttempts: 2, Journal: journal,
		Telemetry: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100))
		if i < 3 && err != nil {
			t.Fatal(err)
		}
		if i == 3 && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("flush against dead daemon = %v, want ErrUnreachable", err)
		}
	}
	drops.Store(0) // daemon recovers
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	got := metricsMap(t, set)
	want := map[string]float64{
		metricDBDBatches + `{result="accepted"}`:  1,
		metricDBDBatches + `{result="duplicate"}`: 2, // in-flush retry + journal replay
		metricDBDRecords + `{result="accepted"}`:  4,
		metricDBDRecords + `{result="duplicate"}`: 8,
		metricDBDConnections:                      3, // one dial per delivery attempt
		metricDBDClientFlushes:                    2,
		metricDBDClientRetries:                    1,
		metricDBDClientRedials:                    3,
		metricDBDClientSpilled:                    1,
		metricDBDClientReplayed:                   1,
		metricDBDClientBatchesSent:                1, // only the acked replay counts as sent
		metricDBDClientRecordsSent:                4,
		metricDBDClientBackoff + "_count":         1, // one backoff sleep before the retry
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s = %g, want %g", key, got[key], w)
		}
	}
	// The counters must agree with the pre-telemetry Stats structs they
	// mirror.
	st, cs := srv.Stats(), c.Stats()
	if got[metricDBDProtoErrors] != float64(st.ProtocolErrors) {
		t.Errorf("protocol errors metric = %g, stats = %d", got[metricDBDProtoErrors], st.ProtocolErrors)
	}
	if got[metricDBDClientFlushes] != float64(cs.Flushes) || got[metricDBDClientRetries] != float64(cs.Retries) {
		t.Errorf("client metrics disagree with stats %+v", cs)
	}

	// The event log tells the same story: one accepted and two duplicate
	// batch outcomes, one spill, one replay carrying all four records.
	kinds := map[string]int{}
	var replay telemetry.Event
	for _, ev := range set.Rec().Events() {
		kinds[ev.Kind]++
		if ev.Kind == "eardbd.replay" {
			replay = ev
		}
	}
	if kinds["eardbd.batch"] != 3 || kinds["eardbd.spill"] != 1 || kinds["eardbd.replay"] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
	if replay.Num["records"] != 4 || replay.Str["id"] != "n01/1" {
		t.Errorf("replay event = %+v", replay)
	}
	if db.Len() != 4 {
		t.Fatalf("db = %d records, want 4 (exactly once)", db.Len())
	}
}

// runTelemetryClosedLoop is runClosedLoop with an instance telemetry
// set wired through server, every client, and the eargm ratchet. It
// returns the rendered /metrics text and the event-kind histogram.
func runTelemetryClosedLoop(t *testing.T, nodes, workers int) (string, map[string]int) {
	t.Helper()
	set := telemetry.NewSet()
	srv := NewServer(eard.NewDB(), Config{Telemetry: set})
	err := par.ForEach(workers, nodes, func(i int) error {
		node := fmt.Sprintf("n%02d", i)
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		c, err := NewClient(ClientConfig{
			Node:         node,
			Dial:         srv.Dial,
			Clock:        NewFakeClock(0),
			Jitter:       rand.New(rand.NewSource(int64(i))),
			BatchRecords: 4,
			Telemetry:    set,
		})
		if err != nil {
			return err
		}
		for j := 0; j < 10; j++ {
			power := 250 + 40*rng.Float64()
			r := eard.JobRecord{
				JobID: fmt.Sprintf("job%d", j%3), StepID: fmt.Sprint(j / 3), Node: node,
				App: "BT-MZ.C", Policy: "min_energy",
				TimeSec: 120, EnergyJ: power * 120, AvgPower: power,
				AvgCPU: 2.1, AvgIMC: 2.4,
			}
			if err := c.Enqueue(r); err != nil {
				return err
			}
		}
		return c.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eargm.New(eargm.Config{BudgetW: 260 * float64(nodes), MaxCapPstate: 8, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eargm.Drive(m, srv, 0, 12); err != nil {
		t.Fatal(err)
	}
	// An admin tool reads over the wire: the node powers once and the
	// generation twice, on one connection.
	admin, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{wire.QueryNodePowers, wire.QueryGeneration, wire.QueryGeneration} {
		if _, err := Query(admin, wire.Query{Kind: kind}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := set.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range set.Rec().Events() {
		kinds[ev.Kind]++
	}
	return b.String(), kinds
}

// TestTelemetryClosedLoopWorkerInvariance pins the observability
// contract on the full reporting tier: the rendered /metrics payload is
// byte-identical whatever the feeder worker count (counters are sums,
// gauges are driven sequentially), and the event mix is fixed even
// though event interleaving under concurrent feeders is not.
func TestTelemetryClosedLoopWorkerInvariance(t *testing.T) {
	const nodes = 8
	refText, refKinds := runTelemetryClosedLoop(t, nodes, 1)

	samples, err := telemetry.ParseText(strings.NewReader(refText))
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64, len(samples))
	for _, s := range samples {
		vals[s.Name+s.Labels] = s.Value
	}
	// Known scenario counts: 8 nodes x 10 records in batches of 4 =
	// 2 size-triggered flushes + 1 close flush per node.
	for key, want := range map[string]float64{
		metricDBDBatches + `{result="accepted"}`: 24,
		metricDBDRecords + `{result="accepted"}`: 80,
		metricDBDClientFlushes:                   24,
		metricDBDClientBatchesSent:               24,
		metricDBDClientRecordsSent:               80,
		metricDBDConnections:                     9, // one connection per node client, and the admin's
		metricDBDQueries:                         3,
		"goear_eargm_intervals_total":            12,
		// How big the answers served are, by kind: eight names of three
		// bytes with a power each behind a kind byte and a count, and two
		// generations of one-digit counter and stamps. A kind nobody asked
		// for reads zero.
		metricDBDReplyBytes + `{kind="node_powers"}`: 2 + 8*(1+3+8),
		metricDBDReplyBytes + `{kind="generation"}`:  2 * (1 + 4),
		metricDBDReplyBytes + `{kind="changes"}`:     0,
	} {
		if _, ok := vals[key]; !ok {
			t.Errorf("/metrics has no %s", key)
		}
		if vals[key] != want {
			t.Errorf("%s = %g, want %g", key, vals[key], want)
		}
	}
	// A retired kind has no series.
	for _, kind := range []string{"records", "acct_records"} {
		if key := metricDBDReplyBytes + `{kind="` + kind + `"}`; strings.Contains(refText, key) {
			t.Errorf("/metrics has %s", key)
		}
	}
	if refKinds["eardbd.batch"] != 24 {
		t.Errorf("event kinds = %v, want 24 eardbd.batch", refKinds)
	}

	for _, workers := range []int{1, 4, 8} {
		got, kinds := runTelemetryClosedLoop(t, nodes, workers)
		if got != refText {
			t.Errorf("workers=%d: /metrics text differs from workers=1 run:\n--- want\n%s--- got\n%s",
				workers, refText, got)
		}
		if len(kinds) != len(refKinds) {
			t.Errorf("workers=%d: event kinds = %v, want %v", workers, kinds, refKinds)
		}
		for k, n := range refKinds {
			if kinds[k] != n {
				t.Errorf("workers=%d: %d %s events, want %d", workers, kinds[k], k, n)
			}
		}
	}
}

// TestReplyBytesCountsWithoutAllocating: counting a served reply is an
// array load and an add, with telemetry on or off, and a payload that
// is no result at all is not counted against anybody.
func TestReplyBytesCountsWithoutAllocating(t *testing.T) {
	set := telemetry.NewSet()
	on, off := NewReplies(set), NewReplies(nil)
	gen, err := (*wire.Conn)(nil).AppendResult(nil, wire.QueryGeneration, wire.Generation{Gen: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		on.count(gen, len(gen))
		off.count(gen, len(gen))
		on.count([]byte{200, 1, 2}, 3)
		on.count(nil, 0)
	}); n != 0 {
		t.Errorf("counting a reply allocates %v times", n)
	}
	if got := metricsMap(t, set)[metricDBDReplyBytes+`{kind="generation"}`]; got != 101*float64(len(gen)) {
		t.Errorf("generation reply bytes = %v after 101 replies of %d", got, len(gen))
	}
}
