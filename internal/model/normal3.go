package model

import (
	"errors"
	"math"
)

// errSingular is returned when a least-squares system has no unique
// solution (rank-deficient design matrix).
var errSingular = errors.New("singular system")

// normal3 accumulates the left-hand side of the normal equations of a
// three-feature linear least-squares fit, min ||X·beta − y||², one
// sample at a time: XᵀX (upper triangle) lives in a fixed array, and the
// fit's right-hand side Xᵀy in an rhs3 beside it, so a fit of any number
// of samples needs no design matrix and no heap, and fits whose samples
// share their rows share one normal3. The zero values are an empty
// system. Every sum receives its addends in the order samples are
// added, so the result is a function of the sample sequence alone.
type normal3 struct {
	n   int // samples added
	xtx [3][3]float64
}

// rhs3 is one fit's Xᵀy.
type rhs3 [3]float64

// affine is a fit row (x, t, 1) with the products that are not exact
// formed once: x·1 and 1·1 need no multiplication.
type affine struct{ x, t, xx, xt, tt float64 }

// affineRow returns the row (x, t, 1).
func affineRow(x, t float64) affine { return affine{x: x, t: t, xx: x * x, xt: x * t, tt: t * t} }

// addRow adds the row (x, t, 1) to the system's XᵀX, and counts it: bit
// for bit the sums of adding the row term by term, with each product
// formed once per row, not once per system it joins. A sample is one
// addRow and one addY; fits whose samples share their rows share XᵀX,
// so one addRow serves them all.
func (a *normal3) addRow(r *affine) {
	a.n++
	a.xtx[0][0] += r.xx
	a.xtx[0][1] += r.xt
	a.xtx[0][2] += r.x
	a.xtx[1][1] += r.tt
	a.xtx[1][2] += r.t
	a.xtx[2][2]++
}

// addY adds the row (x, t, 1) with target y to the fit's Xᵀy.
func (v *rhs3) addY(r *affine, y float64) {
	v[0] += float64(r.x * y)
	v[1] += float64(r.t * y)
	v[2] += y
}

// solve returns the coefficient vector beta, one entry per feature, of
// the fit whose XᵀX is a and whose Xᵀy is y, by Gaussian elimination
// with partial pivoting on the normal equations. Both accumulators are
// left untouched, so more samples may follow.
func (a *normal3) solve(y *rhs3) ([3]float64, error) {
	M, x := a.xtx, *y
	for i := 1; i < 3; i++ {
		for j := 0; j < i; j++ {
			M[i][j] = M[j][i]
		}
	}
	for col := 0; col < 3; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(M[col][col])
		for r := col + 1; r < 3; r++ {
			if v := math.Abs(M[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return [3]float64{}, errSingular
		}
		M[col], M[piv] = M[piv], M[col]
		x[col], x[piv] = x[piv], x[col]
		// Eliminate below.
		for r := col + 1; r < 3; r++ {
			f := M[r][col] / M[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < 3; c++ {
				M[r][c] -= float64(f * M[col][c])
			}
			x[r] -= float64(f * x[col])
		}
	}
	// Back substitution.
	for col := 2; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < 3; c++ {
			s -= float64(M[col][c] * x[c])
		}
		x[col] = s / M[col][col]
	}
	return x, nil
}
