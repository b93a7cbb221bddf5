package ulp

import (
	"math"
	"testing"
)

// TestAdvanceAndReachMatchAdds: on the edges the package's argument
// turns on — half-ulp ties from an odd and an even start, crossings of
// a binade in both directions, a step that rounds to nothing, a start at
// zero — Advance and Reach equal the additions they stand for, bit for
// bit. sim.FuzzSpanMatchesTicks runs the same comparison on fuzzed
// chains.
func TestAdvanceAndReachMatchAdds(t *testing.T) {
	const u = 0x1p-52 // the ulp of [1, 2)
	for _, c := range []struct {
		name     string
		s, c, at float64
		k        uint64
	}{
		{"tie from an even start", 1, 0.5 * u, 1 + 100*u, 1000},
		{"tie from an odd start", 1 + u, 1.5 * u, 1 + 999*u, 1000},
		{"rising across 2", 2 - 40*u, 3.3 * u, 2 + 10*u, 100},
		{"falling across 1", 1 + 30*u, -1.3 * u, 1 - 20*u, 100},
		{"falling tie", 1 + 31*u, -0.5 * u, 1, 100},
		{"a step that rounds to nothing", 3, 1e-17, 3.5, 100},
		{"from zero", 0, 0.01, 1, 200},
		{"a clock to its barrier", 1023.99, 0.00999999999999998, 1024.5, 200},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			reached := false
			for i := uint64(1); i <= c.k; i++ {
				s += c.c
				if !reached && (c.c > 0 && s >= c.at || c.c <= 0 && s <= c.at) {
					reached = true
					gj, gs := Reach(c.s, c.c, c.at, c.k)
					if gj != i || math.Float64bits(gs) != math.Float64bits(s) {
						t.Errorf("Reach = %d, %v; the adds reach %v after %d", gj, gs, s, i)
					}
				}
				if i%7 == 0 || i == c.k {
					if got := Advance(c.s, c.c, i); math.Float64bits(got) != math.Float64bits(s) {
						t.Fatalf("Advance(%d) = %v (%#x), the adds give %v (%#x)", i, got, math.Float64bits(got), s, math.Float64bits(s))
					}
				}
			}
			if !reached {
				if gj, gs := Reach(c.s, c.c, c.at, c.k); gj != c.k || math.Float64bits(gs) != math.Float64bits(s) {
					t.Errorf("Reach = %d, %v; the adds never reach %v in %d (end at %v)", gj, gs, c.at, c.k, s)
				}
			}
		})
	}
}
