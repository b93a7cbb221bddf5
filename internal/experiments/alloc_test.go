package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestWarmCampaignAllocations pins what sim-campaign's trial allocates
// on one worker: every experiment generated at Parallel 1 on a fresh
// run cache over warm models and calibrations, its runs executed
// again. Pools make the count depend on the schedule unless held
// still: the collector is off, so no pool (sim's nodes, fmt's
// printers) is emptied between rounds, and one P keeps one pool of
// each, so which recycled node a run gets does not depend on the
// processor the test runs on. The count is the least of eight rounds:
// MemStats counts the runtime's own allocations on other goroutines
// too, which only add. It was 1,987 while every numeric cell was a
// string of its own (one FormatFloat, two allocations), and 1,064 while
// the run cache allocated each key and entry, every renewed policy
// with a changed config was built anew, and fig1 boxed each pinned
// pstate and uncore ratio.
func TestWarmCampaignAllocations(t *testing.T) {
	if raceOn {
		t.Skip("sync.Pool drops pooled sim nodes at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := NewQuick()
	warm.Parallel = 1
	round := func() uint64 {
		c := NewFrom(warm)
		c.Parallel = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range IDs() {
			if _, err := c.Generate(id); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		warm = c // keeps the calibrations the round added
		return after.Mallocs - before.Mallocs
	}
	round() // trains the models and calibrates the workloads
	least := round()
	for range 7 {
		least = min(least, round())
	}
	if least != 726 {
		t.Errorf("a warm campaign at Parallel 1: %d allocations, want 726", least)
	}
}
