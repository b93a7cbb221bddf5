package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refLeastSquares and refSolveLinear are the generic slice-of-slices
// least squares model.Train used before Normal3, kept as the oracle of
// TestNormal3MatchesReference: design matrix in, normal equations
// formed in a second pass, elimination on copies.
func refLeastSquares(X [][]float64, y []float64) ([]float64, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("stats: least squares needs matching, non-empty X and y")
	}
	p := len(X[0])
	A := make([][]float64, p)
	b := make([]float64, p)
	for i := 0; i < p; i++ {
		A[i] = make([]float64, p)
	}
	for _, row := range X {
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				A[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}
	for k, row := range X {
		for i := 0; i < p; i++ {
			b[i] += row[i] * y[k]
		}
	}
	return refSolveLinear(A, b)
}

func refSolveLinear(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	M := make([][]float64, n)
	for i := range A {
		M[i] = append([]float64(nil), A[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		piv := col
		best := math.Abs(M[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(M[r][col]); a > best {
				best, piv = a, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		M[col], M[piv] = M[piv], M[col]
		x[col], x[piv] = x[piv], x[col]
		for r := col + 1; r < n; r++ {
			f := M[r][col] / M[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				M[r][c] -= f * M[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= M[col][c] * x[c]
		}
		x[col] = s / M[col][col]
	}
	return x, nil
}

// TestNormal3MatchesReference is the differential fence under the
// trained model's bit-identity: on seeded three-feature systems of
// every shape training meets — well conditioned, badly scaled, needing
// a pivot, with an exactly-zero elimination factor, one to a few
// samples, collinear — the streaming solver returns the oracle's
// coefficients bit for bit, or ErrSingular exactly when it does.
func TestNormal3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	shapes := []struct {
		name string
		row  func() [3]float64
	}{
		// Training's own rows: (CPI or watts, transactions/instr, 1).
		{"cpi", func() [3]float64 { return [3]float64{0.3 + 2*rng.Float64(), rng.Float64() / 8, 1} }},
		{"power", func() [3]float64 { return [3]float64{200 + 250*rng.Float64(), rng.Float64() / 8, 1} }},
		// Largest column last and first: different pivot orders.
		{"pivot", func() [3]float64 { return [3]float64{rng.Float64(), 10 * rng.Float64(), 1e3 * rng.NormFloat64()} }},
		{"scaled", func() [3]float64 { return [3]float64{1e6 * rng.NormFloat64(), 1e-3 * rng.Float64(), rng.Float64()} }},
		// An all-zero feature: f == 0 in the elimination, then a
		// singular column.
		{"zero-column", func() [3]float64 { return [3]float64{rng.Float64(), 0, 1} }},
		{"collinear", func() [3]float64 { v := rng.Float64(); return [3]float64{v, 2 * v, 1} }},
		{"one-point", func() [3]float64 { return [3]float64{0.5, 0.02, 1} }},
		// Orthogonal unit rows: exact zeros off the diagonal.
		{"unit", func() [3]float64 { var x [3]float64; x[rng.Intn(3)] = 1 + float64(rng.Intn(3)); return x }},
	}
	var solved, singular int
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 17, 400} {
			for rep := 0; rep < 20; rep++ {
				var acc Normal3
				X, y := make([][]float64, n), make([]float64, n)
				for i := range X {
					x := sh.row()
					X[i], y[i] = x[:], 5*rng.NormFloat64()
					acc.Add(x, y[i])
				}
				got, gerr := acc.Solve()
				want, werr := refLeastSquares(X, y)
				if gerr != werr {
					t.Fatalf("%s n=%d: err %v, reference %v", sh.name, n, gerr, werr)
				}
				if acc.N != n {
					t.Fatalf("%s: N = %d after %d samples", sh.name, acc.N, n)
				}
				if werr != nil {
					singular++
					continue
				}
				solved++
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d: beta[%d] = %x, reference %x", sh.name, n, i,
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
	if solved < 400 || singular < 100 {
		t.Errorf("only %d solved and %d singular systems: a path went unexercised", solved, singular)
	}
}
