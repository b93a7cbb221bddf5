// Package sim is the determinism check's test fixture, loaded under
// "fix/internal/sim". The // want comments are golden expectations
// consumed by TestGolden.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func badClock() float64 {
	t := time.Now()   // want `time\.Now reads the wall clock`
	_ = time.Since(t) // want `time\.Since reads the wall clock`
	return 0
}

func badGlobalRand() int {
	return rand.Intn(10) // want `math/rand\.Intn draws from the shared global generator`
}

func badGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand\.Shuffle draws from the shared global generator`
}

// goodSeededRand is the sanctioned path: explicit seed, private
// generator.
func goodSeededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func badMapAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order is randomized but this loop appends to a slice`
		out = append(out, k)
	}
	return out
}

// goodCollectThenSort appends in map order but sorts before the slice
// escapes: deterministic, not flagged.
func goodCollectThenSort(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// goodCollectThenSortSlice is the same idiom through sort.Slice.
func goodCollectThenSortSlice(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// goodAggregate only folds the values; order-neutral.
func goodAggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func badMapPrint(m map[string]int) {
	for k, v := range m { // want `map iteration order is randomized but this loop writes output via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

// fakeClock is an injected clock: a parameterless Now with a single
// result.
type fakeClock struct{ now float64 }

func (c fakeClock) Now() float64 { return c.now }

// stepper carries a clock on the receiver and still reads the wall
// clock: the injected clock next to it does not excuse time.Now.
type stepper struct {
	clock fakeClock
}

func (s *stepper) badReceiverNow() float64 {
	t := time.Now() // want `time\.Now reads the wall clock`
	_ = t
	return s.clock.Now()
}

// clientish nests the clock one level down in a config struct, the
// c.cfg.Clock shape of the eardbd client.
type clientCfg struct {
	Name  string
	Clock fakeClock
}

type clientish struct{ cfg clientCfg }

func (c *clientish) badNestedNow() {
	t := time.Now() // want `time\.Now reads the wall clock`
	_ = t
}
