package fed

import (
	"fmt"
	"slices"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// TestStreamedViewEveryCut: from a frame limit of a few records'
// worth up to past a shard's whole view, a root whose shards share its
// limit builds the very view a root over default shards builds from one
// frame a shard, and renders the same transcript.
func TestStreamedViewEveryCut(t *testing.T) {
	lf := newLimitedFleet(t, 24)
	ref, shards := lf.root(t, 0, nil)
	want, err := ref.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := dbdtest.Transcript(ref, 24)
	if err != nil {
		t.Fatal(err)
	}
	whole := max(wholeView(t, shards[0].srv), wholeView(t, shards[1].srv))
	cuts := 0
	for limit := 300; limit <= whole+256; limit += 1 + limit/8 {
		root, _ := lf.root(t, limit, nil)
		got, err := root.View(nil)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !sameView(got, want) {
			t.Fatalf("limit %d: the streamed view differs from the one-frame view", limit)
		}
		text, err := dbdtest.Transcript(root, 24)
		if err != nil || text != wantText {
			t.Fatalf("limit %d: transcript differs (err %v):\n%s\nwant\n%s", limit, err, text, wantText)
		}
		cuts++
	}
	if cuts < 10 {
		t.Errorf("only %d limits tried", cuts)
	}
}

// TestStalledStreamHoldsUpNoWriter: a client reads the first frame of a
// shard's whole view and stops reading. A batch sent meanwhile on
// another connection is acked and moves the shard's generation; the
// rest of the stream, read afterwards, is the view as it was when
// asked, without that batch; and a root's next view takes the batch in
// as a delta. Under -race, a write reaching the rows the stream reads
// is a reported race.
func TestStalledStreamHoldsUpNoWriter(t *testing.T) {
	ts := telemetry.NewSet()
	shards := []shardFixture{{name: "s0", srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}}
	t.Cleanup(func() { _ = shards[0].srv.Close() })
	fleet, err := NewFleet([]string{"s0"}, dialer(shards))
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRoot(Config{Fleet: fleet, Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	for i := 0; i < 250; i++ {
		node := fmt.Sprintf("n%03d", i)
		var recs []eard.JobRecord
		for j := 0; j < 4; j++ {
			recs = append(recs, report(node, fmt.Sprintf("job%d", j), "0", 250+float64(j)))
		}
		deliver(t, fleet.DialFor(node), wire.Batch{ID: node + "/1", Node: node, Records: recs,
			Acct: []accounting.Record{window(node, "job0", 0, 30000)}})
	}
	before, err := root.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords, wantAcct := before.DB.Records(), before.Acct.Snapshot()
	gen0, _ := shards[0].srv.Generation(nil)

	conn, err := shards[0].srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var c wire.Conn
	c.Reset(conn)
	if err := eardbd.SendQuery(&c, wire.Query{Kind: wire.QueryChanges}, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	first, err := eardbd.ReadResult(&c)
	if err != nil || first.Kind != wire.ChangesPart {
		t.Fatalf("the first frame of the view is a %q result (err %v), want a part", first.Kind, err)
	}
	var got wire.Changes
	var answer wire.ChangesReader
	apply := func(res wire.Result) (bool, error) {
		return answer.Apply(res,
			func(r eard.JobRecord) error { got.Records = append(got.Records, r); return nil },
			func(r accounting.Record) error { got.Acct = append(got.Acct, r); return nil },
			func(np wire.NodePower) error { got.Powers = append(got.Powers, np); return nil })
	}
	if _, err := apply(first); err != nil {
		t.Fatal(err)
	}

	// The stream stalls here, with the rest of the view pinned.
	late := wire.Batch{ID: "late-n000/1", Node: "n000",
		Records: []eard.JobRecord{report("n000", "late", "0", 400), report("n000", "job0", "0", 401)},
		Acct:    []accounting.Record{window("n000", "late", 0, 40000)}}
	deliver(t, fleet.DialFor("n000"), late)
	if gen, _ := shards[0].srv.Generation(nil); gen.Gen <= gen0.Gen {
		t.Fatalf("generation %d after the late batch, was %d: it did not land", gen.Gen, gen0.Gen)
	}

	for done := false; !done; {
		res, err := eardbd.ReadResult(&c)
		if err != nil {
			t.Fatal(err)
		}
		if done, err = apply(res); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got.Records, wantRecords) || !slices.Equal(got.Acct, wantAcct) {
		t.Errorf("the stalled stream read %d records and %d accounting records, want the %d and %d there were when it was asked",
			len(got.Records), len(got.Acct), len(wantRecords), len(wantAcct))
	}

	after, err := root.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.DB.Len(), len(wantRecords)+1; got != want {
		t.Errorf("the root's next view holds %d records, want %d: the late batch's new one", got, want)
	}
	if d := series(t, ts, metricFedRefolds+`{part="records",how="delta"}`); d != 1 {
		t.Errorf("%v node-report misses took in changes, want the one after the late batch", d)
	}
	if _, err := after.DB.Summarize("late", "0"); err != nil {
		t.Errorf("the late batch is not in the root's view: %v", err)
	}
}
