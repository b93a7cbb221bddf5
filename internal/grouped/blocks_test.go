package grouped

import (
	"fmt"
	"strings"
	"testing"
)

// churnRecord is a node report reduced to what the store looks at.
type churnRecord struct {
	job, node string
	end       float64
}

// TestPruneBoundsHeldBlocks churns a capped store through thousands of
// inserts — groups of one record and of hundreds, so regions move and
// blocks are abandoned — and checks after every Prune that the slot
// blocks the store holds stay bounded by its live records, that header
// blocks stay bounded by its groups, and that every evicted header is
// zeroed: it keeps no key strings and no region alive.
func TestPruneBoundsHeldBlocks(t *testing.T) {
	st := New(
		func(r *churnRecord) Group { return Group{Job: r.job} },
		func(r *churnRecord) string { return r.node },
		strings.Compare)
	end := func(r *churnRecord) float64 { return r.end }
	const keep = 300
	repacks := 0
	for i := 0; i < 20000; i++ {
		job := fmt.Sprintf("short%d", i/7)
		if i%3 == 0 {
			job = fmt.Sprintf("long%d", i/400) // long groups beside the short ones
		}
		st.Insert(&churnRecord{job: job, node: fmt.Sprintf("n%05d", i), end: float64(i)})
		held := st.held
		st.Prune(keep, end)
		if st.held < held {
			repacks++
		}
		if st.held > repackPerRecord*st.Len()+repackSlack {
			t.Fatalf("insert %d: %d records hold %d slots in blocks", i, st.Len(), st.held)
		}
		// Every header cut since the last repack is live or free, and free
		// ones are reused first: no more than the most groups ever live.
		if hdrs := len(st.groups) + len(st.freeHdrs); hdrs > keep+1 {
			t.Fatalf("insert %d: %d groups hold %d headers", i, len(st.groups), hdrs)
		}
		for _, g := range st.freeHdrs {
			if g.key != (Group{}) || g.slots != nil {
				t.Fatalf("insert %d: an evicted header still holds %q and %d slots", i, g.key, cap(g.slots))
			}
		}
	}
	if repacks == 0 {
		t.Error("20,000 inserts under a cap of 300 never repacked the slot blocks")
	}
	if st.Len() > keep {
		t.Errorf("%d records stored under a cap of %d", st.Len(), keep)
	}
}
