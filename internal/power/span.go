package power

import (
	"math"
	"math/bits"

	"goear/internal/ulp"
)

// The meters' closed forms: k ticks of Advance at once, bit for bit. The
// accumulators are ulp.Advance chains; these are the two meters that
// are more than one chain.

const mantBits = 52 // a float64's stored mantissa bits

// inmSpan moves a NodeManager's state — energy integral, published
// value, last publication and clock — k ticks of perJ joules and dt
// seconds ahead. The meter publishes at the tick its clock has moved a
// whole second past the last publication (now − last ≥ 1, an exact
// difference: last is a whole number at or below now), then snaps last
// to that second. The walk goes from publication to publication; the
// published value is the integral at the last of them.
func inmSpan(trueJ, pub, last, now, perJ, dt float64, k uint64) (float64, float64, float64, float64) {
	var at uint64
	for j := uint64(0); j < k; {
		i, next := ulp.Reach(now, dt, last+1, k-j)
		j, now = j+i, next
		if now-last < 1.0 {
			break
		}
		last, at = float64(int64(now)), j
	}
	if at > 0 {
		pub = ulp.Advance(trueJ, perJ, at)
		trueJ = pub
	}
	return ulp.Advance(trueJ, perJ, k-at), pub, last, now
}

// raplTick is one tick of a RAPL carry, exactly as Rapl.Advance does
// it: carry fractional joules, truncate to whole microjoules, add
// them to the mirrored 32-bit counter in counter units, wrap it as
// msr.AddEnergyHw does.
func raplTick(p, carry float64, cnt uint64, esu float64) (float64, uint64) {
	j := p + carry
	whole := float64(int64(j*1e6)) / 1e6
	return j - whole, (cnt + uint64(whole*esu)) & 0xFFFFFFFF
}

// raplSpan returns a RAPL carry and its counter after k raplTicks of p
// joules, whatever k is. It ticks until raplCycle can take the rest at
// once: a carry left by another operating point or off the grid needs a
// tick or two first. Past three tries the carry is not settling (p's
// joules straddle a binade, say) and the rest is ticked.
func raplSpan(p, carry float64, cnt uint64, esu float64, k uint64) (float64, uint64) {
	for try := 0; k > 0; try++ {
		if try < 3 {
			if c, n, ok := raplCycle(p, carry, cnt, esu, k); ok {
				return c, n
			}
		}
		carry, cnt = raplTick(p, carry, cnt, esu)
		k--
	}
	return carry, cnt
}

// raplCycle solves k raplTicks in closed form when the carry is settled.
//
// Take g, the ulp of j = p+carry's binade. While p, the carry and both
// candidate whole values lie on g's grid and every j stays inside the
// binade, each tick is integer arithmetic in units of g: j = p+C exact,
// whole is lo or hi (one microjoule apart, b units) by whether C has
// reached the truncation threshold T, and C−whole is exact. With a =
// p−lo, the carry rotates, C' = C + a − b·[C ≥ T], through the interval
// [T+a−b, T+a) whenever 0 ≤ a ≤ b. Offset by that interval's floor as
// x, k ticks take it to (x + k·a) mod b, and ⌊(x + k·a)/b⌋ of them
// truncate to hi. ok is false when the carry is not (yet) on that cycle.
func raplCycle(p, carry float64, cnt uint64, esu float64, k uint64) (float64, uint64, bool) {
	e := math.Float64bits(p+carry) >> mantBits
	if e <= mantBits || e >= 0x7FF {
		return 0, 0, false
	}
	// g = 2^(e−1075) and its exact inverse, from the exponent bits.
	g, inv := math.Float64frombits((e-mantBits)<<mantBits), math.Float64frombits((2098-e)<<mantBits)
	w := float64(int64(p * 1e6))
	lo, hi := w/1e6, (w+1)/1e6
	pu, cu, lou, hiu := float64(p*inv), float64(carry*inv), float64(lo*inv), float64(hi*inv)
	if pu != math.Trunc(pu) || cu != math.Trunc(cu) || lou != math.Trunc(lou) || hiu != math.Trunc(hiu) {
		return 0, 0, false
	}
	a, b := int64(pu-lou), int64(hiu-lou)
	if a < 0 || a > b {
		return 0, 0, false
	}
	// J: the first grid j whose truncation reaches w+1.
	J := int64(hiu)
	for i := 0; i < 4 && truncMicro(J-1, g) > w; i++ {
		J--
	}
	for i := 0; i < 4 && truncMicro(J, g) <= w; i++ {
		J++
	}
	// The cycle's j run over [J+a−b, J+a): inside the binade, truncating
	// to w below J and to w+1 from J on (monotone, so the ends decide).
	jlo, jhi := J+a-b, J+a-1
	if truncMicro(J-1, g) > w || truncMicro(J, g) <= w || jlo < 1<<mantBits || jhi >= 1<<(mantBits+1) ||
		truncMicro(jlo, g) < w || truncMicro(jhi, g) > w+1 {
		return 0, 0, false
	}
	floor := jlo - int64(pu)
	x := int64(cu) - floor
	if x < 0 || x >= b {
		return 0, 0, false
	}
	h, l := bits.Mul64(k, uint64(a))
	l, c := bits.Add64(l, uint64(x), 0)
	nHi, xk := bits.Div64(h+c, l, uint64(b))
	incLo, incHi := uint64(lo*esu), uint64(hi*esu)
	cnt = (cnt + (k-nHi)*incLo + nHi*incHi) & 0xFFFFFFFF
	return float64(floor+int64(xk)) * g, cnt, true
}

// truncMicro is raplTick's whole microjoules of the j that is n units of
// g.
func truncMicro(n int64, g float64) float64 { return float64(int64(float64(n) * g * 1e6)) }
