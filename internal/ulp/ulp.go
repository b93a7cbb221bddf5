// Package ulp moves a floating-point accumulator many additions ahead
// at once, bit for bit: k repetitions of s += c in a time that does not
// grow with k.
//
// While s stays inside one binade [bot, top), every float there is a
// whole number of the binade's ulp u, so fl(s+c) = s + cp with cp = c
// rounded to a multiple of u: the same cp every addition. A half-ulp tie
// rounds to the even neighbour instead; from an even s that neighbour is
// always an even step away, so the step is constant there too. After j
// additions s is then s + j·cp exactly: in bits, a positive float's
// exponent stays put and its mantissa moves by cp/u an addition. The
// addition that leaves the binade is the float op itself, and the next
// binade starts a new stretch. Positive floats order as their bits, so
// where such a chain crosses a bound is integer arithmetic on the bits
// too. No product here is a float product, so FMA contraction cannot
// change a bit.
package ulp

import (
	"math"
	"math/bits"
)

const mantBits = 52

// stretch reports how far s can go on adding c in exact integer steps:
// s's bits b, the step in ulps, and n, the number of additions whose
// results b + j·step (j = 1..n) stay on the grid — at most top−u rising,
// at least bot+u falling, so the exact sum of each lies inside the
// binade. n is 0 when the next addition must be the float op: s zero,
// negative, subnormal or not finite, c a tie and s odd, or a sum that
// leaves the binade. A step of 0 (c == 0, or c rounding to no change)
// never moves s, and n is then unbounded.
func stretch(s, c float64) (b uint64, step int64, n uint64) {
	b = math.Float64bits(s)
	if c == 0 {
		return b, 0, math.MaxUint64
	}
	e := b >> mantBits
	if e == 0 || e >= 0x7FF || b&1 != 0 && halfUlp(c, e) {
		return b, 0, 0
	}
	nb := math.Float64bits(s + c)
	if nb>>mantBits != e {
		return b, 0, 0
	}
	step = int64(nb - b)
	switch {
	case step > 0:
		n = ((e+1)<<mantBits - 1 - b) / uint64(step)
	case step < 0:
		n = (b - e<<mantBits - 1) / uint64(-step)
	default:
		n = math.MaxUint64
	}
	return b, step, n
}

// halfUlp reports whether c is an odd multiple of half the ulp of the
// binade with biased exponent e: whether its lowest set bit is u/2.
func halfUlp(c float64, e uint64) bool {
	cb := math.Float64bits(c) &^ (1 << 63)
	ce, m := cb>>mantBits, cb&(1<<mantBits-1)
	if ce == 0 {
		ce = 1 // subnormal: no implicit bit, the smallest normal's exponent
	} else {
		m |= 1 << mantBits
	}
	return ce+uint64(bits.TrailingZeros64(m)) == e-1
}

// Advance returns s after k additions s += c.
func Advance(s, c float64, k uint64) float64 {
	for k > 0 {
		b, step, n := stretch(s, c)
		if n >= k {
			return math.Float64frombits(b + k*uint64(step))
		}
		s = math.Float64frombits(b+n*uint64(step)) + c
		k -= n + 1
	}
	return s
}

// Reach adds c to s at most kmax times and returns the first count j at
// which s has reached bound (s_j ≥ bound for c > 0, s_j ≤ bound
// otherwise), with s_j; kmax and s_kmax when it does not. bound must be
// positive.
func Reach(s, c, bound float64, kmax uint64) (uint64, float64) {
	var j uint64
	for j < kmax && (c > 0 && s < bound || c <= 0 && s > bound) {
		b, step, n := stretch(s, c)
		if step != 0 {
			// s_i's bits are b + i·step: the first i at or past bound's.
			d := int64(math.Float64bits(bound) - b)
			var i uint64
			if step > 0 {
				i = uint64((d + step - 1) / step)
			} else {
				i = uint64((d + step + 1) / step)
			}
			if i <= n && i <= kmax-j {
				return j + i, math.Float64frombits(b + i*uint64(step))
			}
		} else if n > 0 {
			return kmax, s // s no longer moves
		}
		if m := kmax - j; n >= m {
			return kmax, math.Float64frombits(b + m*uint64(step))
		}
		s = math.Float64frombits(b+n*uint64(step)) + c
		j += n + 1
	}
	return j, s
}
