package experiments

import (
	"testing"

	"goear/internal/alloctest"
)

// TestWarmCampaignAllocations pins what sim-campaign's trial allocates:
// every experiment generated on a fresh run cache over warm models and
// calibrations, its runs executed again, at Parallel 1 and at the
// bench's Parallel 2. sim's node pool makes the count depend on the
// schedule unless held still: the collector is off, so the pool is not
// emptied between rounds, and one P keeps one pool, so which recycled
// node a run gets does not depend on the processor the test runs on.
// The count is the least of eight rounds: MemStats counts the
// runtime's own allocations on other goroutines too, which only add.
//
// At Parallel 1 the pin is exact. It was 1,987 while every numeric
// cell was a string of its own (one FormatFloat, two allocations),
// 1,064 while the run cache allocated each key and entry, every renewed
// policy with a changed config was built anew, and fig1 boxed each
// pinned pstate and uncore ratio, and 726 while titles and labels went
// through fmt.Sprintf.
//
// At Parallel 2 two rows take nodes from the one pool in an order the
// scheduler picks, so what a run's recycled node must rebuild still
// moves the count: single rounds read 742-762, the least of eight
// 742-750. sim.nodePool's doc gives the measured reason the pool stays
// all the same. So the pin is a ceiling: Parallel 1's count, the 54
// that the row fan-outs and the lone runs' node dispatches add (exact
// with the pool bypassed: every node built anew), and 18 for the pool.
// It read 990-1,016 while every run a row asked for fanned its nodes
// out over both workers again, a par dispatch each, beside the row
// fan-out that already kept them busy.
func TestWarmCampaignAllocations(t *testing.T) {
	alloctest.Hold(t)
	least := func(parallel int) uint64 {
		warm := NewQuick()
		warm.Parallel = parallel
		round := func() alloctest.Allocs {
			c := NewFrom(warm)
			a := alloctest.Count(func() {
				for _, id := range IDs() {
					if _, err := c.Generate(id); err != nil {
						t.Fatal(err)
					}
				}
			})
			warm = c // keeps the calibrations the round added
			return a
		}
		round() // trains the models and calibrates the workloads
		return alloctest.Least(8, round).Mallocs
	}
	const serial = 698
	if n := least(1); n != serial {
		t.Errorf("a warm campaign at Parallel 1: %d allocations, want %d", n, serial)
	}
	if n, most := least(2), uint64(serial+54+18); n > most {
		t.Errorf("a warm campaign at Parallel 2: %d allocations, want at most %d", n, most)
	}
}
