package accounting

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"goear/internal/grouped"
	"goear/internal/telemetry"
)

func mustRecord(t *testing.T, job, step, user, node string, phase int) Record {
	t.Helper()
	r, err := NewRecord(
		Meta{JobID: job, StepID: step, User: user, Policy: "min_energy"},
		Window{Node: node, Phase: phase, StartSec: float64(120 * phase), EndSec: float64(120 * (phase + 1))},
		Energy{PkgJ: 1000, DramJ: 120, UncoreJ: 80, NodeJ: 1400},
		Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRecordValidation(t *testing.T) {
	good := Meta{JobID: "j", StepID: "0", User: "u"}
	win := Window{Node: "n", EndSec: 1}
	cases := []struct {
		name string
		m    Meta
		w    Window
		e    Energy
	}{
		{"empty job", Meta{StepID: "0", User: "u"}, win, Energy{}},
		{"empty step", Meta{JobID: "j", User: "u"}, win, Energy{}},
		{"empty user", Meta{JobID: "j", StepID: "0"}, win, Energy{}},
		{"empty node", good, Window{EndSec: 1}, Energy{}},
		{"negative phase", good, Window{Node: "n", Phase: -1, EndSec: 1}, Energy{}},
		{"backwards window", good, Window{Node: "n", StartSec: 2, EndSec: 1}, Energy{}},
		{"negative energy", good, win, Energy{PkgJ: -1}},
		{"nan energy", good, win, Energy{NodeJ: math.NaN()}},
		{"inf energy", good, win, Energy{DramJ: math.Inf(1)}},
	}
	for _, c := range cases {
		if _, err := NewRecord(c.m, c.w, c.e, Rates{}); err == nil {
			t.Errorf("%s: NewRecord accepted an invalid record", c.name)
		}
	}
	r, err := NewRecord(good, win, Energy{}, Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if r.V != CodecVersion {
		t.Fatalf("V = %d, want %d", r.V, CodecVersion)
	}
	r.V = CodecVersion + 1
	if err := r.Validate(); err == nil {
		t.Error("Validate accepted a foreign codec version")
	}
}

func TestAttributeConservesEnergy(t *testing.T) {
	total := Energy{PkgJ: 30000, DramJ: 4000, UncoreJ: 2500, NodeJ: 40000}
	tenants := []Tenant{
		{Meta: Meta{JobID: "a", StepID: "0", User: "alice"}, Usage: Usage{Instr: 3e12, Cycles: 2e12, DRAMBytes: 1e11}},
		{Meta: Meta{JobID: "b", StepID: "0", User: "bob"}, Usage: Usage{Instr: 1e12, Cycles: 5e12, DRAMBytes: 9e11}},
		{Meta: Meta{JobID: "c", StepID: "0", User: "carol"}, Usage: Usage{Instr: 7e11, Cycles: 1e12, DRAMBytes: 0}},
	}
	recs, err := Attribute(nil, Window{Node: "n1", EndSec: 120}, total, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tenants) {
		t.Fatalf("got %d records for %d tenants", len(recs), len(tenants))
	}
	var pkg, dram, unc, node float64
	for _, r := range recs {
		pkg += r.PkgJ
		dram += r.DramJ
		unc += r.UncoreJ
		node += r.NodeJ
	}
	close := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	if !close(pkg, total.PkgJ) || !close(dram, total.DramJ) || !close(unc, total.UncoreJ) || !close(node, total.NodeJ) {
		t.Errorf("attribution lost joules: pkg %.12f dram %.12f uncore %.12f node %.12f",
			pkg, dram, unc, node)
	}
	// A tenant with more cycles draws a larger package share.
	if recs[1].PkgJ <= recs[0].PkgJ {
		t.Errorf("cycle-heavy tenant got pkg %.1f <= %.1f", recs[1].PkgJ, recs[0].PkgJ)
	}
	// The zero-traffic tenant gets exactly zero DRAM energy.
	if recs[2].DramJ != 0 {
		t.Errorf("zero-traffic tenant got DramJ %.3f, want 0", recs[2].DramJ)
	}
}

func TestAttributeEdgeCases(t *testing.T) {
	if _, err := Attribute(nil, Window{Node: "n", EndSec: 1}, Energy{}, nil); err == nil {
		t.Error("Attribute accepted an empty tenant set")
	}
	// A refused window appends nothing.
	dst := make([]Record, 1, 4)
	if got, err := Attribute(dst, Window{Node: "n", EndSec: 1}, Energy{}, []Tenant{{Meta: Meta{JobID: "a", StepID: "0"}}}); err == nil || len(got) != 1 {
		t.Errorf("a tenant without a user: %d records, err %v; want dst as it came and an error", len(got), err)
	}
	// All-zero usage splits equally.
	tenants := []Tenant{
		{Meta: Meta{JobID: "a", StepID: "0", User: "u"}},
		{Meta: Meta{JobID: "b", StepID: "0", User: "u"}},
	}
	recs, err := Attribute(nil, Window{Node: "n", EndSec: 1}, Energy{PkgJ: 100, NodeJ: 100}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recs[0].PkgJ-recs[1].PkgJ) > 1e-9 || math.Abs(recs[0].PkgJ+recs[1].PkgJ-100) > 1e-9 {
		t.Errorf("all-zero usage split %.6f / %.6f, want equal halves of 100", recs[0].PkgJ, recs[1].PkgJ)
	}
}

// decodeCursor is parseCursor with the key's strings copied out.
func decodeCursor(s string) (Key, error) {
	var raw [cursorRoom]byte
	c, err := parseCursor(raw[:], s)
	if err != nil {
		return Key{}, err
	}
	return Key{JobID: string(c.job), StepID: string(c.step), Node: string(c.node), Phase: c.phase}, nil
}

func TestCursorRoundTrip(t *testing.T) {
	k := Key{JobID: "job1", StepID: "0", Node: "node007", Phase: 3}
	got, err := decodeCursor(EncodeCursor(k))
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("round trip %+v != %+v", got, k)
	}
	if _, err := decodeCursor("!!not-base64!!"); err == nil {
		t.Error("DecodeCursor accepted garbage")
	}
}

// FuzzCursor: a key whose fields Validate would let into a store comes
// back from its cursor as it went in, the cursor being its fields
// joined by the separator in unpadded URL base64; and decodeCursor
// answers any string with a key or an error, never a panic.
func FuzzCursor(f *testing.F) {
	f.Add("job1", "0", "node007", 3, "")
	f.Add("", "", "", 0, "*bad*")
	f.Add("a", "0", "n", -1, "YR9iHzAfbjEfMA") // a cursor of five fields
	f.Fuzz(func(t *testing.T, job, step, node string, phase int, cursor string) {
		_, _ = decodeCursor(cursor)
		if strings.Contains(job+step+node, cursorSep) {
			return
		}
		k := Key{JobID: job, StepID: step, Node: node, Phase: phase}
		c := EncodeCursor(k)
		raw := strings.Join([]string{job, step, node, strconv.Itoa(phase)}, cursorSep)
		if want := base64.RawURLEncoding.EncodeToString([]byte(raw)); c != want {
			t.Fatalf("%+v: cursor %q, want %q", k, c, want)
		}
		if got, err := decodeCursor(c); err != nil || got != k {
			t.Fatalf("%+v: cursor %q decodes to %+v, %v", k, c, got, err)
		}
	})
}

// TestCursorSeparatorCannotStopPagination: a key field that carried the
// cursor separator would render a cursor its own decoder splits into
// five fields, and no walk could get past that record. Validate refuses
// the separator in every field a cursor carries, so the store never
// holds such a record and a one-record walk visits all it does hold.
func TestCursorSeparatorCannotStopPagination(t *testing.T) {
	s := NewStore(nil)
	for _, r := range []Record{
		mustRecord(t, "c", "0", "u", "n1", 0),
		{V: CodecVersion, JobID: "a" + cursorSep + "b", StepID: "0", User: "u", Node: "n1", EndSec: 1},
		{V: CodecVersion, JobID: "d", StepID: "0" + cursorSep, User: "u", Node: "n1", EndSec: 1},
		{V: CodecVersion, JobID: "e", StepID: "0", User: "u", Node: cursorSep + "n1", EndSec: 1},
	} {
		_, err := s.Insert(r)
		if sep := strings.Contains(r.JobID+r.StepID+r.Node, cursorSep); sep != (err != nil) {
			t.Errorf("insert %q/%q on %q: err %v", r.JobID, r.StepID, r.Node, err)
		}
	}
	walked, err := Walk(s.Query, Query{Limit: 1})
	if err != nil || len(walked) != len(s.Snapshot()) {
		t.Fatalf("a one-record walk returned %d of %d records, err %v", len(walked), len(s.Snapshot()), err)
	}
}

// stored looks one key up in the store's canonical snapshot.
func stored(s *Store, k Key) (Record, bool) {
	for _, r := range s.Snapshot() {
		if r.key() == k {
			return r, true
		}
	}
	return Record{}, false
}

func TestStoreClassesAndGeneration(t *testing.T) {
	s := NewStore(nil)
	r := mustRecord(t, "j1", "0", "alice", "n1", 0)
	class, err := s.Insert(r)
	if err != nil || class != grouped.Accepted {
		t.Fatalf("first insert: class %v err %v", class, err)
	}
	g1 := s.recs.Rows().Generation()
	if class, _ = s.Insert(r); class != grouped.Duplicate {
		t.Fatalf("identical re-insert: class %v, want duplicate", class)
	}
	if s.recs.Rows().Generation() != g1 {
		t.Error("duplicate moved the generation counter")
	}
	r2 := r
	r2.PkgJ += 5
	if class, _ = s.Insert(r2); class != grouped.Replaced {
		t.Fatalf("same-key different payload: class %v, want replaced", class)
	}
	if s.recs.Rows().Generation() == g1 {
		t.Error("replace did not move the generation counter")
	}
	bad := r
	bad.V = 99
	if _, err := s.Insert(bad); err == nil {
		t.Error("Insert accepted a foreign codec version")
	}
	if n := len(s.Snapshot()); n != 1 {
		t.Errorf("snapshot holds %d records, want 1", n)
	}
	if got, ok := stored(s, r.key()); !ok || got.PkgJ != r2.PkgJ {
		t.Errorf("snapshot holds %+v ok=%v", got, ok)
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	s := NewStore(nil)
	// Insert out of order; the snapshot must come back Key-sorted.
	for _, r := range []Record{
		mustRecord(t, "j2", "0", "u", "n1", 0),
		mustRecord(t, "j1", "1", "u", "n2", 1),
		mustRecord(t, "j1", "0", "u", "n2", 0),
		mustRecord(t, "j1", "0", "u", "n1", 1),
	} {
		if _, err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	for i := 1; i < len(snap); i++ {
		if !snap[i-1].key().less(snap[i].key()) {
			t.Fatalf("snapshot out of order at %d: %+v then %+v", i, snap[i-1].key(), snap[i].key())
		}
	}
}

// windowRecord builds a valid record with an explicit time window so
// the retention tests can control group recency directly.
func windowRecord(t *testing.T, job, step, node string, start, end float64) Record {
	t.Helper()
	r, err := NewRecord(
		Meta{JobID: job, StepID: step, User: "u", Policy: "min_energy"},
		Window{Node: node, StartSec: start, EndSec: end},
		Energy{PkgJ: 10, DramJ: 1, UncoreJ: 1, NodeJ: 13},
		Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStoreRetentionCap(t *testing.T) {
	set := telemetry.NewSet()
	s := NewStore(set)
	// Three job steps of two records each, end times ascending: j0
	// (oldest) ends at 100, j1 at 200, j2 at 300.
	for j := 0; j < 3; j++ {
		end := float64(100 * (j + 1))
		for n := 0; n < 2; n++ {
			job := fmt.Sprintf("j%d", j)
			if _, err := s.Insert(windowRecord(t, job, "0", fmt.Sprintf("n%d", n), end-60, end)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.maxRecords != 0 {
		t.Fatalf("maxRecords = %d before any cap", s.maxRecords)
	}

	// Installing a cap of 4 must evict the oldest group whole and bump
	// the generation.
	gen := s.recs.Rows().Generation()
	s.SetMaxRecords(4)
	if n := len(s.Snapshot()); n != 4 {
		t.Fatalf("snapshot holds %d records after SetMaxRecords(4), want 4", n)
	}
	if s.recs.Rows().Generation() == gen {
		t.Error("eviction did not move the generation counter")
	}
	for n := 0; n < 2; n++ {
		if _, ok := stored(s, Key{JobID: "j0", StepID: "0", Node: fmt.Sprintf("n%d", n)}); ok {
			t.Errorf("j0/n%d survived eviction of the oldest group", n)
		}
		if _, ok := stored(s, Key{JobID: "j1", StepID: "0", Node: fmt.Sprintf("n%d", n)}); !ok {
			t.Errorf("j1/n%d evicted out of order", n)
		}
	}

	// A fresh ingest over the cap prunes on insert. j3 is the newest
	// group, so j1 (now oldest) goes; its second record must not linger
	// — groups age out whole, never partially.
	if _, err := s.Insert(windowRecord(t, "j3", "0", "n0", 340, 400)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Snapshot()); n != 3 {
		t.Fatalf("snapshot holds %d records after over-cap insert, want 3", n)
	}
	for n := 0; n < 2; n++ {
		if _, ok := stored(s, Key{JobID: "j1", StepID: "0", Node: fmt.Sprintf("n%d", n)}); ok {
			t.Errorf("j1/n%d survived a whole-group eviction", n)
		}
	}
	if _, ok := stored(s, Key{JobID: "j3", StepID: "0", Node: "n0"}); !ok {
		t.Error("the record that triggered pruning was itself evicted")
	}

	// Seed rides the same cap.
	s.Seed([]Record{
		windowRecord(t, "j4", "0", "n0", 440, 500),
		windowRecord(t, "j4", "0", "n1", 440, 500),
		windowRecord(t, "j4", "0", "n2", 440, 500),
	})
	if n := len(s.Snapshot()); n != 4 {
		t.Fatalf("snapshot holds %d records after Seed, want 4", n)
	}
	if _, ok := stored(s, Key{JobID: "j4", StepID: "0", Node: "n2"}); !ok {
		t.Error("seeded newest-group record missing after prune")
	}

	var buf bytes.Buffer
	if err := set.Reg().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"goear_accounting_pruned_total 6",
		"goear_accounting_records 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("telemetry missing %q in:\n%s", want, text)
		}
	}

	// Lifting the cap stops eviction.
	s.SetMaxRecords(0)
	if _, err := s.Insert(windowRecord(t, "j5", "0", "n0", 540, 600)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Snapshot()); n != 5 {
		t.Fatalf("snapshot holds %d records with the cap lifted, want 5", n)
	}
}

// buildStore populates n jobs × m nodes for the query tests.
func buildStore(t testing.TB, jobs, nodes int) *Store {
	s := NewStore(nil)
	users := []string{"alice", "bob", "carol"}
	for j := 0; j < jobs; j++ {
		for n := 0; n < nodes; n++ {
			r, err := NewRecord(
				Meta{JobID: fmt.Sprintf("job%d", j), StepID: "0", User: users[j%len(users)]},
				Window{Node: fmt.Sprintf("node%03d", n), StartSec: float64(60 * j), EndSec: float64(60 * (j + 1))},
				Energy{PkgJ: 1000, DramJ: 100, UncoreJ: 50, NodeJ: 1300},
				Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
			)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestQueryPaginationWalksEverything(t *testing.T) {
	s := buildStore(t, 6, 40) // 240 records: three pages at the default size
	full, err := s.Query(Query{Limit: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != 240 || full.Total != 240 || full.Next != "" {
		t.Fatalf("full listing: %d records, total %d, next %q", len(full.Records), full.Total, full.Next)
	}
	walked, err := Walk(s.Query, Query{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full.Records)
	b, _ := json.Marshal(walked)
	if !bytes.Equal(a, b) {
		t.Fatal("paged walk differs from the one-shot listing")
	}
}

func TestQueryFilters(t *testing.T) {
	s := buildStore(t, 6, 10)
	byUser, err := s.Query(Query{User: "alice", Limit: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if byUser.Total != 20 { // jobs 0 and 3 of 6
		t.Errorf("alice total = %d, want 20", byUser.Total)
	}
	for _, r := range byUser.Records {
		if r.User != "alice" {
			t.Fatalf("user filter leaked %q", r.User)
		}
	}
	byJob, err := s.Query(Query{Job: "job2", Limit: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if byJob.Total != 10 {
		t.Errorf("job2 total = %d, want 10", byJob.Total)
	}
	// since drops windows ending at or before the mark: jobs 0-2 end by
	// t=180, jobs 3-5 remain.
	since, err := s.Query(Query{Since: 180, Limit: MaxPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if since.Total != 30 {
		t.Errorf("since total = %d, want 30", since.Total)
	}
	if _, err := s.Query(Query{Cursor: "*bad*"}); err == nil {
		t.Error("Query accepted a garbage cursor")
	}
	empty, err := s.Query(Query{User: "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Records == nil || len(empty.Records) != 0 {
		t.Errorf("empty page must be non-nil and empty, got %#v", empty.Records)
	}
}

func TestQueryLimitClamping(t *testing.T) {
	s := buildStore(t, 3, 50) // 150 records
	p, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != defaultPageSize || p.Next == "" {
		t.Errorf("default page: %d records, next %q", len(p.Records), p.Next)
	}
	p, err = s.Query(Query{Limit: MaxPageSize * 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 150 {
		t.Errorf("over-limit page returned %d records", len(p.Records))
	}
}

// referencePage is the page q selects over a canonical snapshot, built
// the plain way: filter, skip to the cursor, cut at the limit.
func referencePage(snap []Record, q Query) (Page, error) {
	limit := min(q.Limit, MaxPageSize)
	if limit <= 0 {
		limit = defaultPageSize
	}
	var after Key
	if q.Cursor != "" {
		k, err := decodeCursor(q.Cursor)
		if err != nil {
			return Page{}, err
		}
		after = k
	}
	page := Page{Records: []Record{}}
	for _, r := range snap {
		if !q.match(&r) {
			continue
		}
		page.Total++
		if q.Cursor != "" && !after.less(r.key()) {
			continue
		}
		if len(page.Records) == limit {
			page.Next = EncodeCursor(page.Records[limit-1].key())
			continue
		}
		page.Records = append(page.Records, r)
	}
	return page, nil
}

// TestSelectMatchesReferencePage walks every filter with every limit
// from the first page to the last over a 3,000-record store, then the
// cursors no walk produces. At every step Store.Select, Store.Query and
// the plain filter-and-cut page of a snapshot agree, and the pages —
// records, Next (the cursor bytes) and Total, or a refusal — hash to a
// digest pinned while they were still held, page for page, to the
// page-building loop an earlier selection replaced.
func TestSelectMatchesReferencePage(t *testing.T) {
	s := buildStore(t, 15, 200)
	snap := s.Snapshot()
	h := fnv.New64a()
	check := func(q Query) Page {
		t.Helper()
		want, err := referencePage(snap, q)
		if err != nil {
			if _, err := s.Query(q); err == nil {
				t.Fatalf("%+v: Store.Query accepted what the reference refused", q)
			}
			h.Write([]byte("refused\n"))
			return Page{}
		}
		begun, i := -1, 0
		key, more, total, err := s.Select(q, func(n int) { begun = n }, func(r *Record) {
			if i >= len(want.Records) || *r != want.Records[i] {
				t.Fatalf("%+v: Select yields %+v at %d", q, *r, i)
			}
			i++
		})
		next := ""
		if more {
			next = string(AppendCursor(nil, key))
		}
		if err != nil || begun != len(want.Records) || i != begun || next != want.Next || total != want.Total {
			t.Fatalf("%+v: selected %d records (yielded %d), next %q, total %d, err %v; want %d, %q, %d",
				q, begun, i, next, total, err, len(want.Records), want.Next, want.Total)
		}
		if got := mustQuery(t, s, q); got.Records == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Store.Query differs from the reference page (%d records, next %q)", q, len(got.Records), got.Next)
		}
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(data, '\n'))
		return want
	}
	pages := 0
	for _, filter := range []Query{{}, {User: "alice"}, {Job: "job2"}, {Since: 180}, {User: "bob", Since: 400}, {User: "nobody"}, {Job: "job2", User: "alice"}} {
		for _, limit := range []int{-1, 0, 1, 7, 200, MaxPageSize, 10 * MaxPageSize} {
			if limit == 1 && filter.Job == "" {
				continue // a job's 200 one-record pages say all that 3,000 would
			}
			q := filter
			q.Limit = limit
			for {
				page := check(q)
				pages++
				if page.Next == "" {
					break
				}
				q.Cursor = page.Next
			}
		}
	}
	if pages < 500 {
		t.Fatalf("walked only %d pages", pages)
	}
	// Cursors no walk hands out: past the last key, before the first,
	// between two stored keys, and not a cursor at all.
	for _, cursor := range []string{
		EncodeCursor(Key{JobID: "zzz", StepID: "9", Node: "z"}),
		EncodeCursor(Key{JobID: "a"}),
		EncodeCursor(Key{JobID: "job3", StepID: "0", Node: "node0991"}),
		"*bad*",
	} {
		h.Write([]byte(cursor + "\n"))
		check(Query{Cursor: cursor, Limit: 200})
		check(Query{Cursor: cursor, User: "carol"})
	}
	const want uint64 = 0xcb6fc6009c65ef28
	if got := h.Sum64(); got != want {
		t.Errorf("%d pages digest to %#016x, want %#016x", pages, got, want)
	}
}

func mustQuery(t *testing.T, s *Store, q Query) Page {
	t.Helper()
	p, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cursorSink keeps a cursor string a count makes from being optimised
// away.
var cursorSink string

// TestQueryAllocatesOnlyThePage: selecting a 200-record page of a
// 3,000-record store allocates nothing, the cursor it resumes from
// included (parsed on the stack) and the one it hands out as a key; a
// cursor appended to a kept buffer allocates nothing either. Copying
// the page out adds exactly one slice, exactly sized, and its Next
// cursor, one string.
func TestQueryAllocatesOnlyThePage(t *testing.T) {
	s := buildStore(t, 15, 200)
	snap := s.Snapshot()
	var buf []byte
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"first page", Query{Limit: 200}},
		{"middle page", Query{Limit: 200, Cursor: EncodeCursor(snap[999].key())}},
		{"last page", Query{Limit: 200, Cursor: EncodeCursor(snap[len(snap)-201].key())}},
		// BenchmarkJobQuery's shape: one user's first page.
		{"alice's first page", Query{User: "alice", Limit: 200}},
	} {
		page, err := s.Query(c.q)
		if err != nil || len(page.Records) != 200 || cap(page.Records) != 200 {
			t.Fatalf("%s: %d records in a slice of %d, err %v", c.name, len(page.Records), cap(page.Records), err)
		}
		if got := testing.AllocsPerRun(20, func() { _, _, _, _ = s.Select(c.q, func(int) {}, func(*Record) {}) }); got != 0 {
			t.Errorf("%s: Store.Select allocates %v times, want 0", c.name, got)
		}
		cursors := 0.0
		if page.Next != "" {
			last := page.Records[199].key()
			if n := testing.AllocsPerRun(20, func() { buf = AppendCursor(buf[:0], last) }); n != 0 || string(buf) != page.Next {
				t.Errorf("%s: AppendCursor allocates %v times and appends %q, want 0 and %q", c.name, n, buf, page.Next)
			}
			if n := testing.AllocsPerRun(20, func() { cursorSink = EncodeCursor(last) }); n != 1 {
				t.Errorf("%s: EncodeCursor allocates %v times, want 1", c.name, n)
			}
			cursors++
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = s.Query(c.q) }); got != cursors+1 {
			t.Errorf("%s: Store.Query allocates %v times, want its cursor's %v and one slice", c.name, got, cursors)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	s := buildStore(t, 3, 5)
	h := Handler(s.Query)

	req := httptest.NewRequest("GET", "/api/jobs?user=alice&limit=3", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var page Page
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 3 || page.Total != 5 || page.Next == "" {
		t.Errorf("page: %d records, total %d, next %q", len(page.Records), page.Total, page.Next)
	}

	// Following the cursor yields the remainder.
	req = httptest.NewRequest("GET", "/api/jobs?user=alice&limit=3&cursor="+page.Next, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var rest Page
	if err := json.Unmarshal(w.Body.Bytes(), &rest); err != nil {
		t.Fatal(err)
	}
	if len(rest.Records) != 2 || rest.Next != "" {
		t.Errorf("second page: %d records, next %q", len(rest.Records), rest.Next)
	}

	for _, bad := range []string{"/api/jobs?limit=x", "/api/jobs?since=x", "/api/jobs?cursor=*bad*"} {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", bad, nil))
		if w.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, w.Code)
		}
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/jobs", nil))
	if w.Code != 405 {
		t.Errorf("POST: status %d, want 405", w.Code)
	}
}

// BenchmarkJobQuery is the pinned query-path benchmark: a filtered,
// paginated read over a 3,000-record store's rows, copied out, the
// steady-state serving cost of the accounting tier.
func BenchmarkJobQuery(b *testing.B) {
	s := buildStore(b, 30, 100) // 3000 records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Query(Query{User: "alice", Limit: defaultPageSize})
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Records) != defaultPageSize {
			b.Fatalf("page of %d", len(p.Records))
		}
	}
}
