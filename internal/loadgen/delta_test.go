package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// deltaQueries are the query kinds a root answers from its view, and
// the ingest counters, which it sums from the shards.
var deltaQueries = []wire.Query{
	{Kind: wire.QueryAggregate},
	{Kind: wire.QueryJobs},
	{Kind: wire.QuerySummary, Job: "j0", Step: "0"},
	{Kind: wire.QueryNodePowers},
	{Kind: wire.QueryChanges}, // from zero: the whole view
	{Kind: wire.QueryAcctJobs, Limit: 3},
	{Kind: wire.QueryAcctJobs, User: "u1"},
	{Kind: wire.QueryStats},
}

// answers renders a root's snapshot and its answer to every
// deltaQueries kind, an error as its text; the ingest counters less
// connections and queries, which every read moves.
func answers(root *fed.Root) []byte {
	var b bytes.Buffer
	snap, err := Snapshot(root)
	fmt.Fprintf(&b, "snapshot %v\n%s\n", err, snap)
	for _, q := range deltaQueries {
		payload, err := eardbd.Answer(nil, root, nil, q)
		if err == nil && q.Kind == wire.QueryStats {
			var st eardbd.Stats
			err = (wire.Result{Kind: q.Kind, Data: payload[1:]}).Decode(&st)
			st.Connections, st.Queries = 0, 0
			payload = []byte(fmt.Sprintf("%+v", st))
		}
		fmt.Fprintf(&b, "%s %v %x\n", q.Kind, err, payload)
	}
	return b.Bytes()
}

// deltaRun drives one seeded script into a cluster of the given shard
// count: node reports inserted, replaced and redelivered, accounting
// windows under a retention cap that evicts, a batch sent to a shard
// that does not own its node, and a shard restarted over its saved
// state. After every step a root that has cached through the whole
// script — taking in changes where it can — must answer exactly what a
// root built for that one read, by full fold, answers.
func deltaRun(t *testing.T, seed int64, shards int, ts *telemetry.Set) {
	rng := rand.New(rand.NewSource(seed))
	c, err := NewCluster(shards, eardbd.Config{AcctMaxRecords: 6 + rng.Intn(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := c.Fleet().Names()
	warm, err := fed.NewRoot(fed.Config{Fleet: c.Fleet(), Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	send := func(dial func() (net.Conn, error), b wire.Batch) {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		f, _ := wire.EncodeBatch(b)
		if err := wire.WriteFrame(conn, f, 0); err != nil {
			t.Fatal(err)
		}
		if ack, err := wire.ReadFrame(conn, 0); err != nil || !ack.AcksBatch(b.ID) {
			t.Fatalf("seed %d: batch %s: %v", seed, b.ID, err)
		}
	}
	var sent []wire.Batch
	seq := 0
	for step := 0; step < 12; step++ {
		node := fmt.Sprintf("n%d", rng.Intn(6))
		seq++
		b := wire.Batch{ID: fmt.Sprintf("%s/%d", node, seq), Node: node}
		for i := rng.Intn(3); i > 0; i-- {
			power := float64(250 + 10*rng.Intn(3)) // few values: replaces and duplicates
			b.Records = append(b.Records, eard.JobRecord{
				JobID: fmt.Sprintf("j%d", rng.Intn(3)), StepID: fmt.Sprint(rng.Intn(2)), Node: node,
				App: "BT-MZ.C", Policy: "min_energy", TimeSec: 120, EnergyJ: 120 * power, AvgPower: power,
			})
		}
		for i := rng.Intn(4); i > 0; i-- {
			phase := rng.Intn(3)
			b.Acct = append(b.Acct, accounting.Record{
				V: accounting.CodecVersion, JobID: fmt.Sprintf("j%d", rng.Intn(4)), StepID: "0",
				User: fmt.Sprintf("u%d", rng.Intn(2)), Node: node, Policy: "min_energy", Phase: phase,
				StartSec: float64(60 * (step + phase)), EndSec: float64(60 * (step + phase + 1)),
				NodeJ: float64(1000 * (1 + rng.Intn(3))),
			})
		}
		dial := c.DialFor(node)
		switch what := rng.Intn(10); {
		case what < 2 && len(sent) > 0:
			// A redelivery: the same batch again, or its records under an
			// ID the batch window does not hold — duplicates that may move
			// a power back.
			b = sent[rng.Intn(len(sent))]
			if what == 1 {
				b.ID = fmt.Sprintf("%s/again%d", b.Node, seq)
			}
			dial = c.DialFor(b.Node)
		case what == 2 && shards > 1:
			// To a shard the ring does not place the node on.
			other := names[0]
			if other == c.Fleet().Owner(node) {
				other = names[1]
			}
			dial = func() (net.Conn, error) { return c.Fleet().Dial(other) }
		case what == 3:
			shard := names[rng.Intn(len(names))]
			if err := c.Kill(shard); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(shard); err != nil {
				t.Fatal(err)
			}
		}
		if len(b.Records)+len(b.Acct) > 0 {
			send(dial, b)
			sent = append(sent, b)
		}
		cold, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		want := answers(cold)
		_ = cold.Close()
		if got := answers(warm); !bytes.Equal(got, want) {
			t.Fatalf("seed %d, %d shards, step %d: the cached root answers\n%s\na fresh root\n%s", seed, shards, step, got, want)
		}
	}
}

// TestDeltaRootMatchesFullFold runs deltaRun over 200 seeds in short
// mode, 1,000 otherwise, each at 1, 2 and 4 shards in turn, and checks
// that the battery took both paths: changes applied, and full folds
// after a refusal, a node off its shard or a restart.
func TestDeltaRootMatchesFullFold(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	ts := telemetry.NewSet()
	for seed := 1; seed <= seeds; seed++ {
		deltaRun(t, int64(seed), []int{1, 2, 4}[seed%3], ts)
	}
	var text strings.Builder
	if err := ts.Reg().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]float64{}
	for _, s := range samples {
		if s.Name == "goear_eardbd_fed_refolds_total" && strings.Contains(s.Labels, `part="records"`) {
			by[s.Labels] = s.Value
		}
	}
	delta, full := by[`{part="records",how="delta"}`], by[`{part="records",how="full"}`]
	if delta == 0 || full <= float64(seeds) {
		t.Errorf("the cached roots rebuilt node reports %v times from changes and %v in full over %d seeds: want both paths taken",
			delta, full, seeds)
	}
}
