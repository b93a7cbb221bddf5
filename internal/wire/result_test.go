package wire

import (
	"bytes"
	"fmt"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// fleetAcct is a 3,000-record accounting store — 15 jobs of three
// users over 200 nodes — and fleetDB the node reports of the same
// fleet: the stores the served pages and dumps below are read from.
func fleetAcct(tb testing.TB) *accounting.Store {
	s := accounting.NewStore(nil)
	for j := 0; j < 15; j++ {
		for n := 0; n < 200; n++ {
			_, err := s.Insert(accounting.Record{
				V: accounting.CodecVersion, JobID: fmt.Sprintf("job%02d", j), StepID: "0", User: []string{"alice", "bob", "carol"}[j%3],
				Node: fleetNode(n), Policy: "min_energy_eufs", StartSec: 60 * float64(j), EndSec: 60 * float64(j+1),
				PkgJ: 21000.5, DramJ: 3100.25, UncoreJ: 4000.125, NodeJ: 31000, AvgCPUGHz: 2.1, AvgIMCGHz: 2.4,
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

func fleetDB(tb testing.TB) *eard.DB {
	db := eard.NewDB()
	for j := 0; j < 15; j++ {
		for n := 199; n >= 0; n-- { // against key order
			p := 250 + float64(n%40)
			err := db.Insert(eard.JobRecord{
				JobID: fmt.Sprintf("job%02d", j), StepID: fmt.Sprint(j % 2), Node: fleetNode(n),
				App: "BT-MZ.C", Policy: "min_energy", TimeSec: 120, EnergyJ: 120 * p, AvgPower: p, AvgCPU: 2.1, AvgIMC: 2.4,
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// seedStores folds whatever records FuzzResultPayload's seed corpus
// carries into a database and an accounting store.
func seedStores(t *testing.T) (*eard.DB, *accounting.Store) {
	db, acct := eard.NewDB(), accounting.NewStore(nil)
	for _, p := range resultSeeds(t) {
		res, err := Frame{Type: TypeResult, Payload: p}.AsResult()
		if err != nil {
			continue
		}
		var recs []eard.JobRecord
		var page accounting.Page
		switch res.Kind {
		case QueryRecords:
			err = res.Decode(&recs)
		case QueryAcctRecords:
			err = res.Decode(&page.Records)
		case QueryAcctJobs:
			err = res.Decode(&page)
		}
		if err != nil {
			continue
		}
		for _, r := range recs {
			if err := db.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range page.Records {
			if _, err := acct.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Len() == 0 || acct.Len() == 0 {
		t.Fatal("the seed corpus carries no records")
	}
	return db, acct
}

// TestStoreViewsEncodeByteIdentically: a page encoded from a Selection
// of the shared snapshot, and a dump encoded from the database's rows,
// are byte for byte the page and the dump encoded from their copies —
// every filter with every limit from the first page to the last, the
// cursors no walk produces, an empty store, the fuzz seed corpus and a
// 3,000-record fleet.
func TestStoreViewsEncodeByteIdentically(t *testing.T) {
	seedDB, seedAcct := seedStores(t)
	prefix := []byte("kept")

	for name, s := range map[string]*accounting.Store{"empty": accounting.NewStore(nil), "seeds": seedAcct, "fleet": fleetAcct(t)} {
		snap := s.Snapshot()
		pages := 0
		check := func(q accounting.Query) accounting.Page {
			t.Helper()
			page, err := accounting.PageRecords(snap, q)
			sel, serr := s.Select(q)
			if (err != nil) != (serr != nil) {
				t.Fatalf("%s %+v: PageRecords err = %v, Select err = %v", name, q, err, serr)
			}
			if err != nil {
				return page
			}
			want := mustResultPayload(t, QueryAcctJobs, page)
			got, err := AppendResult(nil, QueryAcctJobs, sel)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %+v: a Selection encodes to %d bytes (err %v), its Page to %d", name, q, len(got), err, len(want))
			}
			// Appending means appending: what dst held stays in front.
			got, err = AppendResult(prefix[:len(prefix):len(prefix)], QueryAcctJobs, sel)
			if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Fatalf("%s %+v: appended to a prefix, a Selection encodes differently (err %v)", name, q, err)
			}
			pages++
			return page
		}
		for _, filter := range []accounting.Query{{}, {User: "alice"}, {Job: "job02"}, {Job: "job1"}, {Since: 180}, {User: "bob", Since: 400}, {User: "nobody"}} {
			for _, limit := range []int{-1, 0, 1, 7, 200, accounting.MaxPageSize, 10 * accounting.MaxPageSize} {
				if limit == 1 && filter.Job == "" && len(snap) > 1000 {
					continue // a job's 200 one-record pages say all that 3,000 would
				}
				q := filter
				q.Limit = limit
				for {
					page := check(q)
					if page.Next == "" {
						break
					}
					q.Cursor = page.Next
				}
			}
		}
		for _, cursor := range []string{
			accounting.EncodeCursor(accounting.Key{JobID: "zzz", StepID: "9", Node: "z"}),
			accounting.EncodeCursor(accounting.Key{JobID: "a"}),
			accounting.EncodeCursor(accounting.Key{JobID: "job03", StepID: "0", Node: "node001990"}),
			"*bad*",
		} {
			check(accounting.Query{Cursor: cursor, Limit: 200})
			check(accounting.Query{Cursor: cursor, User: "carol"})
		}
		if name == "fleet" && pages < 500 {
			t.Errorf("walked only %d pages of the fleet store", pages)
		}
	}

	for name, db := range map[string]*eard.DB{"empty": eard.NewDB(), "seeds": seedDB, "fleet": fleetDB(t)} {
		want := mustResultPayload(t, QueryRecords, db.Records())
		got, err := AppendResult(nil, QueryRecords, db)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the database encodes to %d bytes (err %v), its Records() to %d", name, len(got), err, len(want))
		}
		got, err = AppendResult(prefix[:len(prefix):len(prefix)], QueryRecords, db)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("%s: appended to a prefix, the database encodes differently (err %v)", name, err)
		}
	}

	// The store views belong to their own kinds only, and a refused
	// value leaves dst as it was.
	sel, err := seedAcct.Select(accounting.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for kind, v := range map[string]any{QueryAcctRecords: sel, QueryAcctJobs: seedDB, QueryNodePowers: seedDB, QueryRecords: sel} {
		if got, err := AppendResult(prefix, kind, v); err == nil || !bytes.Equal(got, prefix) {
			t.Errorf("%s accepted a %T (err %v, dst now %d bytes)", kind, v, err, len(got))
		}
	}
}

// TestAppendResultAllocations pins what a connection's kept image buys
// a served reply, and that the encoder stays on the stack for it.
// AppendResult declares one encoder for every kind, so had any path
// moved it to the heap — an iterator the compiler cannot see through
// would — the generation reply, which touches nothing else, would show
// it. A reply of up to linearTable distinct strings is built behind the
// room of a warm connection's image and sent with no allocation at all;
// a fleet-sized one (200 node names) pays for the encoder's string map
// and nothing more. (Selecting a page costs its cursor string, before
// the encoder runs; accounting pins that.)
func TestAppendResultAllocations(t *testing.T) {
	acct := fleetAcct(t)
	page := func(limit int) accounting.Selection {
		sel, err := acct.Select(accounting.Query{User: "alice", Limit: limit})
		if err != nil || sel.N != limit || sel.Next == "" {
			t.Fatalf("selected %d of %d records, next %q, err %v", sel.N, limit, sel.Next, err)
		}
		return sel
	}
	// The string map: made for 128 entries, grown once on the way to 200.
	const stringMap = 4
	var sent bytes.Buffer
	var c Conn
	c.Reset(&sent)
	for _, tc := range []struct {
		name, kind string
		v          any
		max        float64
	}{
		{"generation", QueryGeneration, Generation{Gen: 1 << 40}, 0},
		{"node_powers x20", QueryNodePowers, fleetPowers()[:20], 0},
		{"acct_jobs page x20", QueryAcctJobs, page(20), 0},
		{"node_powers x200", QueryNodePowers, fleetPowers(), stringMap},
		{"acct_jobs page x200", QueryAcctJobs, page(200), stringMap},
	} {
		reply := func() {
			sent.Reset()
			image, err := AppendResult(c.Body(), tc.kind, tc.v)
			if err == nil {
				err = c.Send(TypeResult, trace.Context{}, image)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		reply() // the image and the transport's buffer grow to the reply
		image := &c.Body()[0]
		if n := testing.AllocsPerRun(50, reply); n > tc.max {
			t.Errorf("%s from a warm connection: %v allocations, want at most %v", tc.name, n, tc.max)
		}
		if want := mustResultPayload(t, tc.kind, tc.v); !bytes.Equal(sent.Bytes()[headerLen:], want) || &c.Body()[0] != image {
			t.Errorf("%s: the reply was not built in the connection's image, or is not the payload EncodeResult builds", tc.name)
		}
	}
}

// BenchmarkAcctPageEncode is what serving one accounting page costs a
// connection that keeps its reply buffer: select 200 of 3,000 records
// from the warm snapshot and encode them straight into the frame.
func BenchmarkAcctPageEncode(b *testing.B) {
	s := fleetAcct(b)
	s.Snapshot()
	q := accounting.Query{User: "alice", Limit: 200}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := s.Select(q)
		if err != nil || sel.N != 200 {
			b.Fatalf("selected %d records, err %v", sel.N, err)
		}
		if buf, err = AppendResult(buf[:0], QueryAcctJobs, sel); err != nil {
			b.Fatal(err)
		}
	}
}
