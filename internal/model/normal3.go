package model

import (
	"errors"
	"math"
)

// errSingular is returned when a least-squares system has no unique
// solution (rank-deficient design matrix).
var errSingular = errors.New("singular system")

// normal3 accumulates the normal equations of a three-feature linear
// least-squares fit, min ||X·beta − y||², one sample at a time: XᵀX
// (upper triangle) and Xᵀy live in fixed arrays, so a fit of any number
// of samples needs no design matrix and no heap. The zero value is an
// empty system. Every sum receives its addends in add order, so the
// result is a function of the sample sequence alone.
type normal3 struct {
	n   int // samples added
	xtx [3][3]float64
	xty [3]float64
}

// add appends the sample (x, y) to the system.
func (a *normal3) add(x [3]float64, y float64) {
	a.n++
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			a.xtx[i][j] += x[i] * x[j]
		}
		a.xty[i] += x[i] * y
	}
}

// solve returns the coefficient vector beta, one entry per feature, by
// Gaussian elimination with partial pivoting on the normal equations.
// The accumulator is left untouched, so more samples may follow.
func (a *normal3) solve() ([3]float64, error) {
	M, x := a.xtx, a.xty
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
				M[r][c] -= f * M[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := 2; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < 3; c++ {
			s -= M[col][c] * x[c]
		}
		x[col] = s / M[col][col]
	}
	return x, nil
}
