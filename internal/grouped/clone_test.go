package grouped

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// filled returns a store of n rows in 8 groups, one node per row.
func filled(n int) *Store[churnRecord, string] {
	st := New(
		func(r *churnRecord) Group { return Group{Job: r.job} },
		func(r *churnRecord) string { return r.node },
		strings.Compare)
	for i := 0; i < n; i++ {
		st.Insert(&churnRecord{job: fmt.Sprintf("j%d", i%8), node: fmt.Sprintf("n%05d", i), end: float64(i)})
	}
	return st
}

// walked renders a store's Walk, and then each group's Each, in order.
func walked(st *Store[churnRecord, string]) string {
	var b strings.Builder
	row := func(r *churnRecord) { fmt.Fprintf(&b, "%s/%s/%v\n", r.job, r.node, r.end) }
	st.Walk(row)
	for _, g := range st.Groups() {
		st.Each(g, row)
	}
	return b.String()
}

// copiedChunks counts the chunks a clone no longer shares with its
// source.
func copiedChunks(src, cl *Store[churnRecord, string]) int {
	n := 0
	for i := range src.chunks {
		if cl.chunks[i].rows != src.chunks[i].rows {
			n++
		}
	}
	return n
}

// cloned keeps a clone, as its user does.
var cloned *Store[churnRecord, string]

// TestCloneAllocationsAreConstant: cloning costs the store and its
// chunk list — two allocations at 2,048 rows as at 64.
func TestCloneAllocationsAreConstant(t *testing.T) {
	for _, n := range []int{64, 2048} {
		st := filled(n)
		if got := testing.AllocsPerRun(20, func() { cloned = st.Clone() }); got != 2 {
			t.Errorf("cloning a %d-row store: %v allocations, want 2", n, got)
		}
	}
}

// TestCloneCopiesOnFirstWrite: a replace in a clone copies exactly the
// one chunk it writes, once; an insert copies its group's header and
// region, not the others'; and whatever the clone does, its source
// walks as it did, byte for byte.
func TestCloneCopiesOnFirstWrite(t *testing.T) {
	src := filled(2048)
	before := walked(src)
	cl := src.Clone()

	r := churnRecord{job: "j3", node: "n00003", end: -1}
	if cl.Insert(&r) != Replaced || copiedChunks(src, cl) != 1 {
		t.Fatalf("a replace in the clone copied %d chunks, want 1", copiedChunks(src, cl))
	}
	r = churnRecord{job: "j3", node: "n00011", end: -2} // the same chunk
	if got := testing.AllocsPerRun(1, func() { r.end--; cl.Insert(&r) }); got != 0 || copiedChunks(src, cl) != 1 {
		t.Errorf("a second replace in the copied chunk: %v allocations and %d chunks copied, want 0 and 1", got, copiedChunks(src, cl))
	}

	cl.Insert(&churnRecord{job: "j5", node: "m", end: 1}) // a new key in a shared group
	for k, g := range cl.groups {
		old := src.groups[k]
		if own := k.Job == "j5"; (g != old) != own || (&g.slots[0] != &old.slots[0]) != own {
			t.Errorf("after an insert into j5, group %s: header copied %v, region copied %v; want %v",
				k.Job, g != old, &g.slots[0] != &old.slots[0], own)
		}
	}
	cl.Insert(&churnRecord{job: "a", node: "m", end: 2}) // a new group
	if walked(src) != before {
		t.Fatal("writes to the clone changed its source's walk")
	}
	if cl.Len() != src.Len()+2 || strings.Count(walked(cl), "j3/n00003/-1\n") != 2 {
		t.Errorf("the clone holds %d rows (want %d) or lost its replace", cl.Len(), src.Len()+2)
	}

	// Evictions in a clone free rows and headers it shares, without
	// zeroing them; a clone of the clone writes neither store.
	mid := walked(cl)
	cl2 := cl.Clone()
	cl2.Prune(1024, func(r *churnRecord) float64 { return r.end })
	for i := 0; i < 600; i++ {
		cl2.Insert(&churnRecord{job: "z", node: fmt.Sprintf("n%05d", i), end: 1e6})
	}
	cl2.Prune(1024, func(r *churnRecord) float64 { return r.end })
	if walked(src) != before || walked(cl) != mid {
		t.Fatal("evictions and inserts in a clone's clone changed its sources' walks")
	}
	if want := 1024; cl2.Len() > want || !slices.ContainsFunc(cl2.Groups(), func(g Group) bool { return g.Job == "z" }) {
		t.Errorf("the second clone holds %d rows after a prune to %d, groups %v", cl2.Len(), want, cl2.Groups())
	}
}

// TestGroupOrderIsKeptUntilHeadersChange: a walk builds the canonical
// group order once, and later walks read it with no allocation until
// the set of group headers changes. A replace or a new key in a group
// the store owns keeps it; a new group drops it, and the next walk
// builds it again in one allocation. A clone walks its source's order
// until it copies a group's header to write to it, then builds its own,
// which holds the clone's writes.
func TestGroupOrderIsKeptUntilHeadersChange(t *testing.T) {
	st := filled(256)
	walk := func(s *Store[churnRecord, string]) float64 {
		return testing.AllocsPerRun(5, func() { s.Walk(func(*churnRecord) {}) })
	}
	if n := walk(st); n != 0 {
		t.Errorf("a warm walk: %v allocations, want 0", n)
	}
	st.Insert(&churnRecord{job: "j1", node: "n00001", end: -1}) // a replace
	st.Insert(&churnRecord{job: "j1", node: "m", end: 1})       // a new key in an owned group
	if st.ord == nil {
		t.Error("a replace or an insert into an existing group dropped the order")
	}
	st.Insert(&churnRecord{job: "a", node: "m", end: 2}) // a new group
	if st.ord != nil {
		t.Fatal("a new group kept the order")
	}
	if n := testing.AllocsPerRun(5, func() { st.ord = nil; st.Walk(func(*churnRecord) {}) }); n != 1 {
		t.Errorf("building the order: %v allocations, want 1", n)
	}

	cl := st.Clone()
	if &cl.ord[0] != &st.ord[0] || walk(cl) != 0 {
		t.Error("a clone does not walk its source's order")
	}
	cl.Insert(&churnRecord{job: "j1", node: "n00001", end: -3}) // a replace: the header stays shared
	if cl.ord == nil {
		t.Error("a replace in a clone dropped the order it shares")
	}
	cl.Insert(&churnRecord{job: "j1", node: "mm", end: 3}) // copies j1's header
	if cl.ord != nil {
		t.Fatal("a clone kept its source's order after copying a header")
	}
	if w := walked(cl); !strings.Contains(w, "j1/mm/3\n") || !strings.Contains(w, "j1/n00001/-3\n") || cl.ord == nil {
		t.Error("the clone's own order misses its writes")
	}
	if w := walked(st); strings.Contains(w, "j1/mm/3\n") || !strings.Contains(w, "j1/n00001/-1\n") {
		t.Error("the clone's writes reached its source's walk")
	}
}

// TestWalkFromIsWalksTail: WalkFrom(i) visits what Walk visits from the
// i-th record on, whole groups skipped, and stops when fn says so.
func TestWalkFromIsWalksTail(t *testing.T) {
	st := filled(300)
	all := st.Append(nil)
	for i := 0; i <= len(all)+1; i++ {
		var got []churnRecord
		st.WalkFrom(i, func(r *churnRecord) bool { got = append(got, *r); return len(got) < 5 })
		want := all[min(i, len(all)):]
		if want = want[:min(5, len(want))]; !slices.Equal(got, want) {
			t.Fatalf("WalkFrom(%d) visits %v, want %v", i, got, want)
		}
	}
}

// TestReadersBuildTheOrderAtOnce: readers that walk, list groups and
// clone at once — as they do under eard.DB's read lock — after a write
// dropped the order all see the canonical order; under -race, building
// it together is not a race.
func TestReadersBuildTheOrderAtOnce(t *testing.T) {
	st := filled(512)
	st.Walk(func(*churnRecord) {})
	st.Insert(&churnRecord{job: "a", node: "m", end: 2}) // drops the order
	ref := New(st.group, st.sub, st.order)
	for _, r := range st.Append(nil) {
		ref.Insert(&r)
	}
	want := walked(ref)
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				got[i] = walked(st.Clone())
			} else {
				got[i] = walked(st)
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("reader %d walked another order", i)
		}
	}
}
