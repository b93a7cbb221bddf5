// Package alloctest is the allocation meter of the module's tests: the
// one race switch, a count across one window, the least of several
// windows, and the hold a pooled path needs to be counted exactly. Only
// _test.go files import it (DESIGN §6, "Allocation meters stay in
// tests").
package alloctest

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocs is what one window allocated: the runtime's Mallocs and
// TotalAlloc deltas across it.
type Allocs struct {
	Mallocs, Bytes uint64
}

// Count returns what one call of f allocates. MemStats is
// process-wide, so what other goroutines allocate meanwhile is counted
// too.
func Count(f func()) Allocs {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return Allocs{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// Least runs round rounds times on one P, GOMAXPROCS restored after,
// and returns the least of each count the rounds return. A round opens
// its own window (Count), so what it sets up and tears down around the
// window is not counted. Other goroutines' allocations only add to a
// window, so the least is the nearest to the code's own.
func Least(rounds int, round func() Allocs) Allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := Allocs{math.MaxUint64, math.MaxUint64}
	for range rounds {
		a := round()
		least = Allocs{min(least.Mallocs, a.Mallocs), min(least.Bytes, a.Bytes)}
	}
	return least
}

// Hold keeps a sync.Pool's items for the rest of t: it skips t under
// -race, where a pool drops items at random, and otherwise turns the
// collector off, so no pool is emptied, and pins one P, so a call gets
// back what the call before it put, until t's cleanup restores both.
func Hold(t testing.TB) {
	t.Helper()
	if Race {
		t.Skip("under -race sync.Pool drops pooled items at random")
	}
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}
