package sim

import (
	"math"
	"testing"

	"goear/internal/ulp"
)

// The per-tick oracles: each chain exactly as stepOnce's tick writes it.

func advanceTicks(s, c float64, k uint64) float64 {
	for ; k > 0; k-- {
		s += c
	}
	return s
}

func reachTicks(s, c, bound float64, kmax uint64) (uint64, float64) {
	var j uint64
	for ; j < kmax && (c > 0 && s < bound || c <= 0 && s > bound); j++ {
		s += c
	}
	return j, s
}

// endTicks counts the ticks the armed loop replayed before an
// iteration's clamp or finish: it stopped at the tick whose per
// exceeded the work left or left no more than floor.
func endTicks(left, per, floor float64, kmax uint64) (uint64, float64) {
	var j uint64
	for ; j < kmax && !(per > left) && left-per > floor; j++ {
		left -= per
	}
	return j, left
}

// span kinds, the fuzz input's first byte modulo spanKinds.
const (
	spanRise = iota // advance and reach, c ≥ 0
	spanFall        // advance and reach, c ≤ 0
	spanKinds
)

// FuzzSpanMatchesTicks: every chain the armed node moves itself equals
// its per-tick loop bit for bit — rising and falling accumulators (value,
// the tick a bound is reached, the tick before an iteration's end). The
// seeds force the edges the closed forms argue about: half-ulp ties,
// binade crossings in both directions, steps that round to nothing; then
// the node's chains at the magnitudes a run reaches, and the chains the
// meters hand internal/ulp (the Node Manager's clock to its next
// publication, the uncore controller's one-drain window); then spans of
// one, two and 31 ticks, solved like long ones. Each meter's
// own Span is fuzzed beside it: power.FuzzSpanMatchesAdvance and
// uncore.FuzzSpanMatchesAdvance.
func FuzzSpanMatchesTicks(f *testing.F) {
	const u1 = 0x1p-52 // the ulp of [1, 2)
	type seed struct {
		kind    uint8
		s, c, x float64
		k       uint16
		why     string
	}
	for _, sd := range []seed{
		{spanRise, 1, 0.5 * u1, 2, 1000, "half-ulp tie"},
		{spanRise, 1.5, 3 * 0.5 * u1, 2, 1000, "odd multiple of a half ulp"},
		{spanRise, 2 - 3e-14, 1e-15, 3, 5000, "rising across 2"},
		{spanRise, 1023.99, 0.01, 1100, 2000, "rising across 1024 to a bound"},
		{spanRise, 0.005, 0.00999999999999998, 7.3, 3000, "a clock to a barrier"},
		{spanRise, 1e-300, 1, 5, 10, "off the grid: c far above s"},
		{spanRise, 0, 0.01, 1, 200, "from zero"},
		{spanRise, 12.5, 0, 20, 100, "c == 0"},
		{spanRise, 3, 1e-17, 4, 100, "c under half an ulp"},
		{spanFall, 1 + 2*u1, -1.3 * u1, 0.5, 10, "falling across 1: the sum rounds on the finer grid"},
		{spanFall, 1 + 8*u1, -0.5 * u1, 0.5, 40, "falling tie"},
		{spanFall, 2.5e7, -1.1e5, 1e-6, 400, "instructions left to the floor"},
		{spanFall, 0.15, -0.01, 1e-9, 30, "wall time left to the floor"},
		{spanRise, 4.39e12, 9.6e7, 4.4e12, 20000, "node instructions across 2^42"},
		{spanRise, 1.7591e13, 4.4e8, 1.76e13, 30000, "core cycles across 2^44"},
		{spanRise, 1.1258e15, 3.3e10, 1.126e15, 10000, "DRAM bytes across 2^50"},
		{spanRise, 16383.9, 2.0999999999999996, 16390, 500, "package joules across 2^14"},
		{spanRise, 255.99, 0.024, 256.3, 500, "frequency-seconds across 256"},
		{spanRise, 8191.995, 0.00999999999999998, 8192.5, 5000, "the node clock across 8192 to a barrier"},
		{spanFall, 4.29497e9, -1.9e7, 1e-6, 500, "instructions left across 2^32"},
		{spanFall, 1.0000000000000002, -0.01, 1e-9, 200, "wall time left from just above 1"},
		{spanRise, 3.2, 0.01, 4, 1000, "the meter clock to its next publication"},
		{spanRise, 1234.995, 0.00999999999999998, 1235, 50, "the meter clock one tick short of a publication"},
		{spanRise, 10, 2.5, 11, 200, "a meter tick longer than the publication second"},
		{spanRise, 5e5, 2.9999999999999996, 0, 40000, "the meter integral, no bound"},
		{spanRise, 0.010000000002, 5e-15, 0.019999999, 3000, "the drain window rising: dt above 0.01"},
		{spanFall, 0.010000000002, -5e-15, 0.009999999, 3000, "the drain window falling: dt below 0.01"},
		{spanFall, 0.0099999995 + 0.0099999995, -5e-10, 0.009999999, 3000, "drifting out below the drain threshold"},
		{spanRise, 0.013, 0, 0.019999999, 500, "the drain window at dt == 0.01"},
		{spanFall, 0.0151, -0.0049, 0.009999999, 300, "a step outside the drain window's binade"},
		{spanRise, 7.295, 0.00999999999999998, 7.3, 31, "a clock one tick short of its barrier"},
		{spanRise, 1023.99, 0.01, 1100, 2, "rising across 1024 in two ticks"},
		{spanRise, 0.005, 0.00999999999999998, 7.3, 1, "a clock, one tick"},
		{spanFall, 1 + 2*u1, -1.3 * u1, 0.5, 2, "falling across 1 in two ticks"},
		{spanFall, 2.5e7, -1.1e5, 1e-6, 31, "instructions left, 31 ticks"},
		{spanFall, 1.5e5, -1.1e5, 1e-6, 31, "instructions left one tick from the iteration end"},
		{spanFall, 0.02, -0.01, 1e-9, 2, "wall time left one tick from the iteration end"},
		{spanFall, 0.15, -0.01, 1e-9, 1, "wall time left, one tick"},
	} {
		f.Add(sd.kind, sd.s, sd.c, sd.x, sd.k)
	}
	f.Fuzz(func(t *testing.T, kind uint8, s, c, x float64, k16 uint16) {
		for _, v := range []float64{s, c, x} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		k := uint64(k16)
		same := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: closed form %v (%#x), ticks %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if kind%spanKinds == spanRise {
			c = math.Abs(c)
		} else {
			c = -math.Abs(c)
		}
		same("advance", ulp.Advance(s, c, k), advanceTicks(s, c, k))
		if x = math.Abs(x); x == 0 {
			return
		}
		gj, gs := ulp.Reach(s, c, x, k)
		wj, ws := reachTicks(s, c, x, k)
		if gj != wj {
			t.Fatalf("reach: closed form stops after %d ticks, ticks after %d", gj, wj)
		}
		same("reach", gs, ws)
		if kind%spanKinds == spanFall && math.Abs(s) < 1e300 && -c < 1e300 && x < 1e300 {
			gj, gs := ulp.Reach(s, c, lastClamp(-c, x), k)
			wj, ws := endTicks(s, -c, x, k)
			if gj != wj {
				t.Fatalf("iteration end: closed form stops after %d ticks, ticks after %d", gj, wj)
			}
			same("iteration end", gs, ws)
		}
	})
}
