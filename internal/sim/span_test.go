package sim

import (
	"math"
	"testing"

	"goear/internal/ulp"
	"goear/internal/uncore"
)

// The per-tick oracles: each chain exactly as the armed tick wrote it
// before spans were solved in closed form.

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

func inmTicks(trueJ, pub, last, now, perJ, dt float64, k uint64) (float64, float64, float64, float64) {
	for ; k > 0; k-- {
		trueJ += perJ
		now += dt
		if now-last >= 1.0 {
			pub = trueJ
			last = float64(int64(now))
		}
	}
	return trueJ, pub, last, now
}

func raplTicks(p, carry float64, cnt uint64, esu float64, k uint64) (float64, uint64) {
	for ; k > 0; k-- {
		carry, cnt = raplTick(p, carry, cnt, esu)
	}
	return carry, cnt
}

func settleTicks(acc, dt float64, k uint64) float64 {
	for ; k > 0; k-- {
		acc = uncore.SettleAccum(acc, dt)
	}
	return acc
}

// span kinds, the fuzz input's first byte modulo spanKinds.
const (
	spanRise   = iota // advance and reach, c ≥ 0
	spanFall          // advance and reach, c ≤ 0
	spanRapl          // raplSpan: carry, count, 32-bit wrap
	spanSettle        // uncore.SettleSpan
	spanInm           // inmSpan: the Node Manager's publications
	spanKinds
)

// FuzzSpanMatchesTicks: every chain's closed form equals its per-tick
// loop bit for bit — rising and falling accumulators (value, the tick a
// bound is reached, the tick before an iteration's end), a RAPL carry with its count and 32-bit wrap, the
// controller's settled accumulator, and the Node Manager's publications.
// The seeds force the edges the closed forms argue about: half-ulp ties,
// binade crossings in both directions, negative and off-grid carries,
// off-grid controller accumulators, dt == 0.01, and counters about to
// wrap.
func FuzzSpanMatchesTicks(f *testing.F) {
	const u1 = 0x1p-52 // the ulp of [1, 2)
	type seed struct {
		kind    uint8
		s, c, x float64
		k       uint16
		cnt     uint64
		why     string
	}
	for _, sd := range []seed{
		{spanRise, 1, 0.5 * u1, 2, 1000, 0, "half-ulp tie"},
		{spanRise, 1.5, 3 * 0.5 * u1, 2, 1000, 0, "odd multiple of a half ulp"},
		{spanRise, 2 - 3e-14, 1e-15, 3, 5000, 0, "rising across 2"},
		{spanRise, 1023.99, 0.01, 1100, 2000, 0, "rising across 1024 to a bound"},
		{spanRise, 0.005, 0.00999999999999998, 7.3, 3000, 0, "a clock to a barrier"},
		{spanRise, 1e-300, 1, 5, 10, 0, "off the grid: c far above s"},
		{spanRise, 0, 0.01, 1, 200, 0, "from zero"},
		{spanRise, 12.5, 0, 20, 100, 0, "c == 0"},
		{spanRise, 3, 1e-17, 4, 100, 0, "c under half an ulp"},
		{spanFall, 1 + 2*u1, -1.3 * u1, 0.5, 10, 0, "falling across 1: the sum rounds on the finer grid"},
		{spanFall, 1 + 8*u1, -0.5 * u1, 0.5, 40, 0, "falling tie"},
		{spanFall, 2.5e7, -1.1e5, 1e-6, 400, 0, "instructions left to the floor"},
		{spanFall, 0.15, -0.01, 1e-9, 30, 0, "wall time left to the floor"},
		{spanRapl, 0.61234567891, 3e-7, 14, 5000, 12345, "settled carry"},
		{spanRapl, 0.61234567891, -1e-17, 14, 5000, 12345, "negative carry"},
		{spanRapl, 0.61234567891, 1.2345678901234e-20, 14, 5000, 12345, "carry off the grid"},
		{spanRapl, 1.5e-7, 0, 16, 3000, 1, "under a microjoule a tick"},
		{spanRapl, 2.75, 5e-7, 14, 9000, 0xFFFFF000, "count wraps at 32 bits"},
		{spanRapl, 0.5, 0, 14, 500, 7, "whole microjoules, no carry"},
		{spanRapl, 0.9999995, 2e-7, 14, 500, 7, "j straddles 1"},
		{spanSettle, 0.003, 0.01, 0, 500, 0, "dt == 0.01"},
		{spanSettle, 1e-20, 0.01, 0, 500, 0, "off-grid accumulator, dt == 0.01"},
		{spanSettle, 2e-12, 0.01 + 5e-15, 0, 3000, 0, "dt above 0.01"},
		{spanSettle, 2e-12, 0.01 - 5e-15, 0, 3000, 0, "dt below 0.01"},
		{spanSettle, 0, 0.0099999995, 0, 3000, 0, "drifting out below the threshold"},
		{spanSettle, 0.004, 0.0051, 0, 300, 0, "dt outside the binade"},
		{spanInm, 3.2, 0.01, 0, 1000, 120, "publishes every 100 ticks"},
		{spanInm, 1234.995, 0.00999999999999998, 5e5, 50, 300, "one publication in the span"},
		{spanInm, 0, 0.01, 0, 300, 77, "from time zero"},
		{spanInm, 10, 2.5, 0, 200, 100, "a tick longer than two seconds"},
	} {
		f.Add(sd.kind, sd.s, sd.c, sd.x, sd.k, sd.cnt)
	}
	f.Fuzz(func(t *testing.T, kind uint8, s, c, x float64, k16 uint16, cnt uint64) {
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
		switch kind % spanKinds {
		case spanRise, spanFall:
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
		case spanRapl:
			p := math.Abs(s)
			if p > 1e6 || math.Abs(c) > 1 {
				return
			}
			esu := math.Ldexp(1, int(math.Mod(math.Abs(x), 32)))
			cnt &= 0xFFFFFFFF
			gc, gn := raplSpan(p, c, cnt, esu, k)
			wc, wn := raplTicks(p, c, cnt, esu, k)
			same("rapl carry", gc, wc)
			if gn != wn {
				t.Fatalf("rapl count: closed form %#x, ticks %#x", gn, wn)
			}
		case spanSettle:
			// Beyond these the loop drains for ever; Advance never hands
			// it such a value.
			if math.Abs(s) > 1 || c < 0 || c > 0.1 {
				return
			}
			same("settle", uncore.SettleSpan(s, c, k), settleTicks(s, c, k))
		case spanInm:
			// s is the clock, c the tick's seconds, cnt the tick's
			// joules; the meter's last publication is the clock's whole
			// second, as after any tick.
			now, dt := math.Abs(s), math.Abs(c)
			if now > 1e9 || dt > 10 {
				return
			}
			perJ := float64(cnt%100000) / 7
			last := float64(int64(now))
			gt, gp, gl, gnow := inmSpan(x, -1, last, now, perJ, dt, k)
			wt, wp, wl, wnow := inmTicks(x, -1, last, now, perJ, dt, k)
			same("inm energy", gt, wt)
			same("inm published", gp, wp)
			same("inm last publication", gl, wl)
			same("inm clock", gnow, wnow)
		}
	})
}
