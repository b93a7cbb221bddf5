package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// fleetAcct is a 3,000-record accounting store — 15 jobs of three
// users over 200 nodes — and fleetDB the node reports of the same
// fleet: the stores the served pages and whole views below are read
// from.
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

func fleetDB(tb testing.TB) *eard.DB { return fleetJobsDB(tb, 15) }

// fleetJobsDB is fleetDB's first jobs jobs.
func fleetJobsDB(tb testing.TB, jobs int) *eard.DB {
	db := eard.NewDB()
	for j := 0; j < jobs; j++ {
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
		var ch Changes
		var page accounting.Page
		switch res.Kind {
		case QueryChanges:
			err = res.Decode(&ch)
		case QueryAcctJobs:
			err = res.Decode(&page)
		}
		if err != nil {
			continue
		}
		for _, r := range ch.Records {
			if err := db.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range append(ch.Acct, page.Records...) {
			if _, err := acct.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Len() == 0 || len(acct.Snapshot()) == 0 {
		t.Fatal("the seed corpus carries no records")
	}
	return db, acct
}

// TestStoreViewsEncodeByteIdentically: a page and a whole-view changes
// answer encoded from the stores' rows are byte for byte the same
// results encoded from copies — every filter with every limit from the
// first page to the last, the cursors no walk produces, and every pair
// of an empty store, the fuzz seed corpus and a 3,000-record fleet.
func TestStoreViewsEncodeByteIdentically(t *testing.T) {
	seedDB, seedAcct := seedStores(t)
	prefix := []byte("kept")
	// same checks that got is want, and that appending to a prefix keeps
	// the prefix in front of the same bytes.
	same := func(what string, want []byte, encode func(dst []byte) ([]byte, error)) {
		t.Helper()
		if got, err := encode(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s encodes to %d bytes (err %v), its copy to %d", what, len(got), err, len(want))
		}
		if got, err := encode(prefix[:len(prefix):len(prefix)]); err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("%s, appended to a prefix, encodes differently (err %v)", what, err)
		}
	}

	accts := map[string]*accounting.Store{"empty": accounting.NewStore(nil), "seeds": seedAcct, "fleet": fleetAcct(t)}
	for name, s := range accts {
		snap := s.Snapshot()
		pages := 0
		check := func(q accounting.Query) accounting.Page {
			t.Helper()
			page, err := s.Query(q)
			if got, serr := noConn.AppendAcctPage(prefix, s, q); (err != nil) != (serr != nil) || serr != nil && !bytes.Equal(got, prefix) {
				t.Fatalf("%s %+v: Query err = %v, AppendAcctPage err = %v, dst now %d bytes", name, q, err, serr, len(got))
			}
			if err != nil {
				return page
			}
			same(fmt.Sprintf("%s %+v: a page of the store", name, q), mustResultPayload(t, QueryAcctJobs, page), func(dst []byte) ([]byte, error) {
				return noConn.AppendAcctPage(dst, s, q)
			})
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

	// A whole view streams the frames its copies stream, and one that
	// fits a frame is that frame alone, with or without a connection.
	powers := fleetPowers()
	for dbName, db := range map[string]*eard.DB{"empty": eard.NewDB(), "seeds": seedDB, "fleet": fleetDB(t)} {
		for acctName, acct := range accts {
			what := "a whole view of the " + dbName + " database and the " + acctName + " accounting store"
			copies := &Changes{Records: db.Records(), Acct: acct.Snapshot(), Powers: powers}
			want, frames := streamOf(t, 0, copies)
			if got, _ := streamOf(t, 0, &Changes{DB: db, AcctStore: acct, Powers: powers}); !bytes.Equal(got, want) {
				t.Fatalf("%s streams %d bytes, its copies %d", what, len(got), len(want))
			}
			if frames > 1 {
				if _, err := noConn.AppendChanges(nil, copies); err == nil {
					t.Fatalf("%s: %d frames encoded with no connection to stream them on", what, frames)
				}
				continue
			}
			same(what, mustResultPayload(t, QueryChanges, *copies), func(dst []byte) ([]byte, error) {
				return noConn.AppendChanges(dst, &Changes{DB: db, AcctStore: acct, Powers: powers})
			})
		}
	}

	// AppendResult takes no store — each has its typed appender — and a
	// refused value leaves dst as it was.
	for kind, v := range map[string]any{QueryAcctJobs: seedAcct, QueryNodePowers: seedDB, QueryChanges: seedDB} {
		if got, err := noConn.AppendResult(prefix, kind, v); err == nil || !bytes.Equal(got, prefix) {
			t.Errorf("%s accepted a %T (err %v, dst now %d bytes)", kind, v, err, len(got))
		}
	}
}

// TestAppendResultAllocations pins what a connection's kept image and
// string table buy a served reply, and that the encoder stays on the
// stack for it. AppendResult declares one encoder for every kind, so had
// any path moved it to the heap — an iterator the compiler cannot see
// through would — the generation reply, which touches nothing else,
// would show it. Any reply up to fleet size (200 node names, a
// 200-record page, whose strings outgrow the linear table) is built
// behind the room of a warm connection's image, its strings indexed in
// the table the connection kept, and sent with no allocation at all.
// A page served from a store allocates nothing either: the typed
// appender boxes nothing, where handing the page over in an interface
// cost one more, and its cursor is appended into the frame from the
// page's last key, where it was rendered as a string first (1).
func TestAppendResultAllocations(t *testing.T) {
	var sent bytes.Buffer
	var c Conn
	c.Reset(&sent)
	for _, tc := range []struct {
		name, kind string
		v          any
	}{
		{"generation", QueryGeneration, Generation{Gen: 1 << 40}},
		{"node_powers x20", QueryNodePowers, fleetPowers()[:20]},
		{"acct_jobs page x20", QueryAcctJobs, alicePage(t, 20)},
		{"node_powers x200", QueryNodePowers, fleetPowers()},
		{"acct_jobs page x200", QueryAcctJobs, alicePage(t, 200)},
	} {
		reply := func() {
			sent.Reset()
			image, err := c.AppendResult(c.Body(), tc.kind, tc.v)
			if err == nil {
				err = c.Send(TypeResult, trace.Context{}, image)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		reply() // the image, the table and the transport's buffer grow to the reply
		image := &c.Body()[0]
		if n := testing.AllocsPerRun(50, reply); n != 0 {
			t.Errorf("%s from a warm connection: %v allocations, want 0", tc.name, n)
		}
		if want := mustResultPayload(t, tc.kind, tc.v); !bytes.Equal(sent.Bytes()[headerLen:], want) || &c.Body()[0] != image {
			t.Errorf("%s: the reply was not built in the connection's image, or is not the payload EncodeResult builds", tc.name)
		}
		if len(c.strs) != 0 {
			t.Errorf("%s: the connection keeps a table of %d strings between frames", tc.name, len(c.strs))
		}
	}

	// BenchmarkAcctPageEncode's shape.
	s := fleetAcct(t)
	q := accounting.Query{User: "alice", Limit: 200}
	var buf []byte
	serve := func() {
		var err error
		if buf, err = c.AppendAcctPage(buf[:0], s, q); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	if n := testing.AllocsPerRun(50, serve); n != 0 {
		t.Errorf("a 200-record page selected and encoded: %v allocations, want 0", n)
	}
	if want := mustResultPayload(t, QueryAcctJobs, storePage{s, q}); !bytes.Equal(buf, want) {
		t.Error("the page served from the store is not the payload its copy encodes to")
	}
}

// TestPageCursorNamedInTheTable: a page whose records name a string
// equal to the cursor that ends it — a user so named — refers to that
// string for its cursor, as the page copied out and encoded does,
// whether the table is still linear or has spilled to its map: the
// cursor appended from the store's rows is looked up as a string would
// be, and its literal appears once, as the user.
func TestPageCursorNamedInTheTable(t *testing.T) {
	for _, nodes := range []int{3, 2 * linearTable} {
		s := accounting.NewStore(nil)
		q := accounting.Query{Limit: nodes - 1}
		user := accounting.EncodeCursor(accounting.Key{JobID: "j", StepID: "0", Node: fleetNode(nodes - 2)})
		for n := 0; n < nodes; n++ {
			if _, err := s.Insert(accounting.Record{V: accounting.CodecVersion, JobID: "j", StepID: "0", User: user, Node: fleetNode(n), EndSec: 1}); err != nil {
				t.Fatal(err)
			}
		}
		page, err := s.Query(q)
		if err != nil || page.Next != user {
			t.Fatalf("%d nodes: the page ends at cursor %q (err %v), want the user's name %q", nodes, page.Next, err, user)
		}
		want := mustResultPayload(t, QueryAcctJobs, page)
		var c Conn
		for _, conn := range []*Conn{noConn, &c, &c} {
			got, err := conn.AppendAcctPage(nil, s, q)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d nodes: the page from the store's rows is not the page copied out (err %v)", nodes, err)
			}
			if n := bytes.Count(got, []byte(user)); n != 1 {
				t.Fatalf("%d nodes: the cursor's bytes appear %d times, want once, as the user", nodes, n)
			}
		}
	}
}

// alicePage copies the first limit records of alice's jobs out of the
// fleet store, a page that continues.
func alicePage(t *testing.T, limit int) accounting.Page {
	t.Helper()
	page, err := fleetAcct(t).Query(accounting.Query{User: "alice", Limit: limit})
	if err != nil || len(page.Records) != limit || page.Next == "" {
		t.Fatalf("selected %d of %d records, next %q, err %v", len(page.Records), limit, page.Next, err)
	}
	return page
}

// TestConnStringTable: replies through one connection, whose string
// sets overlap, are each the bytes EncodeResult builds alone — the
// table holds nothing from one frame to the next. The connection keeps
// the table a reply of at most maxTable strings indexed in, and has
// none after one that needed more; the next reply makes a new one.
func TestConnStringTable(t *testing.T) {
	var c Conn
	fleet := fleetPowers()
	many := make([]NodePower, maxTable+1)
	for i := range many {
		many[i] = NodePower{Node: fleetNode(i), PowerW: 300}
	}
	for _, tc := range []struct {
		name, kind string
		v          any
		kept       bool
	}{
		{"names 0-199", QueryNodePowers, fleet, true},
		{"names 100-199", QueryNodePowers, fleet[100:], true},
		{"page of 200", QueryAcctJobs, storePage{fleetAcct(t), accounting.Query{User: "alice", Limit: 200}}, true},
		{"names 50-149", QueryNodePowers, fleet[50:150], true},
		{"names 0-9, no table needed", QueryNodePowers, fleet[:10], true},
		{"node reports of a fleet job", QueryChanges, fleetJobsDB(t, 1), true},
		{"one name more than a kept table holds", QueryNodePowers, many, false},
		{"names 0-199 again", QueryNodePowers, fleet, true},
	} {
		before := c.strs
		got, err := appendReply(&c, nil, tc.kind, tc.v)
		if want := mustResultPayload(t, tc.kind, tc.v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes (err %v), EncodeResult builds %d", tc.name, len(got), err, len(want))
		}
		if kept := c.strs != nil; kept != tc.kept || len(c.strs) != 0 {
			t.Errorf("%s: the connection keeps a table: %v, of %d strings; want %v, empty", tc.name, kept, len(c.strs), tc.kept)
		}
		if before != nil && tc.kept && reflect.ValueOf(c.strs).UnsafePointer() != reflect.ValueOf(before).UnsafePointer() {
			t.Errorf("%s: the reply made a table of its own", tc.name)
		}
	}
}

// TestGenerationBodyOfCounterAlone: a generation body is the counter and
// its three part stamps. One that holds the counter and nothing else —
// what a sender from before the part stamps wrote — is malformed,
// through Decode and Result.Generation alike, and so is one with some
// stamps but not all.
func TestGenerationBodyOfCounterAlone(t *testing.T) {
	old := Result{Kind: QueryGeneration, Data: []byte{0xac, 0x02}} // 300
	var g Generation
	if err := old.Decode(&g); !errors.Is(err, ErrPayload) {
		t.Errorf("Decode of the counter alone: %+v, %v; want ErrPayload", g, err)
	}
	if g, err := old.Generation(); !errors.Is(err, ErrPayload) {
		t.Errorf("Generation of the counter alone: %+v, %v; want ErrPayload", g, err)
	}
	full := Generation{Gen: 9, Records: 7, Acct: 2, Powers: 9}
	payload := AppendGeneration(nil, full)
	if len(payload) != 1+4 {
		t.Fatalf("a generation of one-byte values encodes to %d bytes, want a kind byte and four", len(payload))
	}
	res, err := Frame{Type: TypeResult, Payload: payload}.AsResult()
	if g, gerr := res.Generation(); err != nil || gerr != nil || g != full {
		t.Errorf("round trip: %+v (%v, %v), want %+v", g, err, gerr, full)
	}
	short := Result{Kind: QueryGeneration, Data: payload[1:3]}
	if _, err := short.Generation(); !errors.Is(err, ErrPayload) {
		t.Errorf("a counter and one stamp decode with err %v, want ErrPayload", err)
	}
}

// BenchmarkAcctPageEncode is what serving one accounting page costs a
// connection that keeps its reply buffer and string table: select 200
// of 3,000 records from the store's rows and encode them straight into
// the frame.
func BenchmarkAcctPageEncode(b *testing.B) {
	s := fleetAcct(b)
	q := accounting.Query{User: "alice", Limit: 200}
	var c Conn
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = c.AppendAcctPage(buf[:0], s, q); err != nil {
			b.Fatal(err)
		}
	}
}
