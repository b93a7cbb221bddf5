package grouped

import (
	"sync"
	"testing"
)

// TestPinnedRowsAreNeverWritten: a write that meets a pin writes a
// clone, so the pinned rows walk as they stood; a write with no pin
// left, or none ever taken, writes the rows in place.
func TestPinnedRowsAreNeverWritten(t *testing.T) {
	var mu sync.Mutex
	sh := Share(filled(64))
	before := walked(sh.Rows())

	p := sh.Pin(&mu)
	q := sh.Pin(&mu)
	sh.Writable().Insert(&churnRecord{job: "j0", node: "n99999", end: 1})
	if got := walked(p.rows); got != before || p.Len() != 64 {
		t.Fatalf("a write reached the pinned rows (%d records)", p.Len())
	}
	if sh.Rows() == p.rows || sh.Rows().Len() != 65 {
		t.Fatalf("the write went to the pinned rows, not a clone")
	}
	n := 0
	q.Walk(func(*churnRecord) { n++ })
	if n != 64 {
		t.Errorf("a second pin of the same rows walked %d records, want 64", n)
	}
	// Releasing pins of rows that are no longer current leaves the
	// current rows' count alone.
	p.Release()
	q.Release()

	cur := sh.Rows()
	r := sh.Pin(&mu)
	r.Release()
	if sh.Writable() != cur {
		t.Error("a write after every pin was released cloned the rows")
	}
	if sh.pins != 0 {
		t.Errorf("%d pins left after every release", sh.pins)
	}
}
