// Package stats provides the small numerical toolbox used by goear:
// descriptive statistics for averaging experiment runs, and the
// three-feature linear least squares the energy-model learning phase
// uses to fit projection coefficients against simulator samples.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ErrSingular is returned when a least-squares system has no unique
// solution (rank-deficient design matrix).
var ErrSingular = errors.New("stats: singular system")

// Normal3 accumulates the normal equations of a three-feature linear
// least-squares fit, min ||X·beta − y||², one sample at a time: XᵀX
// (upper triangle) and Xᵀy live in fixed arrays, so a fit of any number
// of samples needs no design matrix and no heap. The zero value is an
// empty system. Every sum receives its addends in Add order, so the
// result is a function of the sample sequence alone.
type Normal3 struct {
	N   int // samples added
	xtx [3][3]float64
	xty [3]float64
}

// Add appends the sample (x, y) to the system.
func (a *Normal3) Add(x [3]float64, y float64) {
	a.N++
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			a.xtx[i][j] += x[i] * x[j]
		}
		a.xty[i] += x[i] * y
	}
}

// Solve returns the coefficient vector beta, one entry per feature, by
// Gaussian elimination with partial pivoting on the normal equations.
// The accumulator is left untouched, so more samples may follow.
func (a *Normal3) Solve() ([3]float64, error) {
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
			return [3]float64{}, ErrSingular
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
