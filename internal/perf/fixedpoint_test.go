package perf_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"goear/internal/perf"
	"goear/internal/workload"
)

// TestRisesMonotone checks the premise of the exact search: rises, the
// sign of rho minus the utilisation implied at rho, is monotone in
// floating point, so that the least float T where it is false decides
// every step of the bisection. Over the learning phase's probe phases on
// every platform, at every pstate and every uncore ratio, and over
// seeded random phases, the T the search finds has Rises(T) false and
// Rises just below T true, and Rises is monotone over the 64 floats on
// each side of T; at each random phase it is also monotone at 1,000
// random ordered pairs, half of them within 2^20 ulps of T.
func TestRisesMonotone(t *testing.T) {
	lanes := 0
	for _, name := range workload.PlatformNames() {
		pl, err := workload.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pl.Machine.CPU
		phases := probePhases(c.TotalCores())
		for p := 0; p < c.PstateCount(); p++ {
			r, err := c.PstateRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			for u := c.UncoreMinRatio; u <= c.UncoreMaxRatio; u++ {
				op := perf.Operating{CoreRatio: r, UncoreRatio: u}
				for i, ph := range phases {
					if fp, ok := perf.NewFixedPoint(pl.Machine, op, ph); ok {
						lanes++
						checkAroundLeast(t, fp, func() string {
							return fmt.Sprintf("%s pstate %d uncore %d probe phase %d %+v", name, p, u, i, ph)
						})
					}
				}
			}
		}
	}
	if lanes < 10000 {
		t.Errorf("%d probe lanes searched, want at least 10000", lanes)
	}

	m := workload.SD530().Machine
	rng := rand.New(rand.NewSource(63))
	random := 0
	for random < 300 {
		ph := perf.Phase{
			BaseCPI:       0.05 + 3*rng.Float64(),
			BytesPerInstr: 12 * rng.Float64() * rng.Float64(),
			VPI:           rng.Float64() * float64(rng.Intn(2)),
			Overlap:       0.999 * rng.Float64(),
			ActiveCores:   1 + rng.Intn(40),
		}
		op := perf.Operating{CoreRatio: uint64(8 + rng.Intn(22)), UncoreRatio: uint64(12 + rng.Intn(13))}
		fp, ok := perf.NewFixedPoint(m, op, ph)
		if !ok {
			continue
		}
		random++
		where := fmt.Sprintf("random phase %+v at %+v", ph, op)
		tb := checkAroundLeast(t, fp, func() string { return where })
		top := math.Float64bits(fp.MaxU())
		for n := 0; n < 1000; n++ {
			var x, y uint64
			if n%2 == 0 {
				x, y = 1+uint64(rng.Int63n(int64(top))), 1+uint64(rng.Int63n(int64(top)))
			} else {
				x, y = nearBits(rng, tb, top), nearBits(rng, tb, top)
			}
			if x > y {
				x, y = y, x
			}
			if fx, fy := math.Float64frombits(x), math.Float64frombits(y); !fp.Rises(fx) && fp.Rises(fy) {
				t.Fatalf("%s: Rises(%#016x = %v) is false and Rises(%#016x = %v) true", where, x, fx, y, fy)
			}
		}
	}
}

// checkAroundLeast requires the search's T to be the least float where
// fp.Rises is false, with Rises true on the 64 floats below it and false
// on the 64 from it up (as far as MaxU), and returns T's bits. where
// names the phase in a failure.
func checkAroundLeast(t *testing.T, fp *perf.FixedPoint, where func() string) uint64 {
	t.Helper()
	tf := fp.Least()
	tb, top := math.Float64bits(tf), math.Float64bits(fp.MaxU())
	if tb == 0 || tb > top {
		t.Fatalf("%s: T = %#016x (%v) outside (0, %v]", where(), tb, tf, fp.MaxU())
	}
	if fp.Rises(tf) {
		t.Fatalf("%s: Rises(T = %#016x = %v) is true", where(), tb, tf)
	}
	for d := uint64(1); d <= 64; d++ {
		if d < tb {
			if x := tb - d; !fp.Rises(math.Float64frombits(x)) {
				t.Fatalf("%s: Rises(%#016x = %v) is false, %d ulps below T = %#016x (%v)", where(), x, math.Float64frombits(x), d, tb, tf)
			}
		}
		if x := tb + d; x <= top && fp.Rises(math.Float64frombits(x)) {
			t.Fatalf("%s: Rises(%#016x = %v) is true, %d ulps above T = %#016x (%v)", where(), x, math.Float64frombits(x), d, tb, tf)
		}
	}
	return tb
}

// nearBits returns the bits of a float within 2^20 ulps of the one with
// bits tb, inside (0, the one with bits top].
func nearBits(rng *rand.Rand, tb, top uint64) uint64 {
	x := int64(tb) + rng.Int63n(1<<21) - 1<<20
	return uint64(min(max(x, 1), int64(top)))
}
