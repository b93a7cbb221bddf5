package grouped

import (
	"fmt"
	"slices"
	"strings"
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
