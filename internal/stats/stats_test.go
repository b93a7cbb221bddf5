package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if s := StdDev(xs); !almostEqual(s, 1.2909944487, 1e-9) {
		t.Errorf("StdDev = %v", s)
	}
	if v := Min(xs); v != 1 {
		t.Errorf("Min = %v", v)
	}
	if v := Max(xs); v != 4 {
		t.Errorf("Max = %v", v)
	}
	if v := Median(xs); v != 2.5 {
		t.Errorf("Median = %v", v)
	}
	if v := Median([]float64{3, 1, 2}); v != 2 {
		t.Errorf("Median odd = %v", v)
	}
}

func TestDescriptiveEmpty(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice statistics must be 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-sample stddev must be 0")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp misbehaves")
	}
}

// fit3 streams (X, y) into a Normal3 and solves it.
func fit3(X [][3]float64, y []float64) ([3]float64, error) {
	var a Normal3
	for i, x := range X {
		a.Add(x, y[i])
	}
	return a.Solve()
}

func TestSolveLinearExact(t *testing.T) {
	// Three orthogonal unit samples make XᵀX the identity and Xᵀy = y,
	// so Solve sees exactly the system it is handed; a scaled, permuted
	// variant makes it pivot.
	x, err := fit3([][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, []float64{5, 10, -2})
	if err != nil {
		t.Fatal(err)
	}
	if x != [3]float64{5, 10, -2} {
		t.Errorf("identity system = %v, want [5 10 -2]", x)
	}
	// 2a+b = 5, a+3b = 10, c = 4, as samples of an exact plane.
	x, err = fit3([][3]float64{{2, 1, 0}, {1, 3, 0}, {0, 0, 2}, {3, 4, 2}}, []float64{5, 10, 8, 23})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [3]float64{1, 3, 4} {
		if !almostEqual(x[i], want, 1e-9) {
			t.Errorf("x = %v, want [1 3 4]", x)
			break
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	// Second feature is twice the first.
	if _, err := fit3([][3]float64{{1, 2, 1}, {2, 4, 1}, {3, 6, 1}, {4, 8, 1}}, []float64{1, 2, 3, 4}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDoesNotConsumeAccumulator(t *testing.T) {
	var a Normal3
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		a.Add([3]float64{rng.Float64(), rng.Float64(), 1}, rng.Float64())
	}
	before := a
	x1, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := a.Solve()
	if a != before || x1 != x2 || a.N != 10 {
		t.Error("Solve changed the accumulator")
	}
}

func TestLeastSquaresRecoversPlane(t *testing.T) {
	// y = 3 + 2*x1 - 0.5*x2, noiseless: LS must recover coefficients.
	rng := rand.New(rand.NewSource(1))
	var X [][3]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x1, x2 := rng.Float64()*10, rng.Float64()*10
		X = append(X, [3]float64{1, x1, x2})
		y = append(y, 3+2*x1-0.5*x2)
	}
	beta, err := fit3(X, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i := range want {
		if !almostEqual(beta[i], want[i], 1e-6) {
			t.Errorf("beta[%d] = %v, want %v", i, beta[i], want[i])
		}
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][3]float64
	var y, yhat []float64
	for i := 0; i < 400; i++ {
		x, z := rng.Float64()*5, rng.Float64()
		X = append(X, [3]float64{1, x, z})
		y = append(y, 1+4*x+rng.NormFloat64()*0.1) // z carries no signal
	}
	beta, err := fit3(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 1, 0.1) || !almostEqual(beta[1], 4, 0.05) || !almostEqual(beta[2], 0, 0.1) {
		t.Errorf("noisy fit beta = %v", beta)
	}
	for _, row := range X {
		yhat = append(yhat, beta[0]+beta[1]*row[1]+beta[2]*row[2])
	}
	if r2 := R2(y, yhat); r2 < 0.99 {
		t.Errorf("R2 = %v, want >= 0.99", r2)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	var empty Normal3
	if _, err := empty.Solve(); err != ErrSingular {
		t.Errorf("empty system: err = %v, want ErrSingular", err)
	}
	// Fewer samples than features.
	if _, err := fit3([][3]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2}); err != ErrSingular {
		t.Errorf("underdetermined system: err = %v, want ErrSingular", err)
	}
	// Rank-deficient: duplicate column.
	if _, err := fit3([][3]float64{{1, 1, 1}, {2, 2, 1}, {3, 3, 1}}, []float64{1, 2, 3}); err != ErrSingular {
		t.Errorf("collinear features: err = %v, want ErrSingular", err)
	}
}

func TestR2Bounds(t *testing.T) {
	y := []float64{1, 2, 3}
	if r := R2(y, y); !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect R2 = %v", r)
	}
	if r := R2(y, []float64{2, 2, 2}); !almostEqual(r, 0, 1e-12) {
		t.Errorf("mean-prediction R2 = %v", r)
	}
	if r := R2([]float64{5, 5}, []float64{5, 5}); r != 0 {
		t.Errorf("zero-variance R2 = %v", r)
	}
	if r := R2(y, []float64{1, 2}); r != 0 {
		t.Errorf("mismatched-length R2 = %v", r)
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	// For random well-conditioned systems, the solution must satisfy
	// the normal equations XᵀX·beta = Xᵀy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Normal3
		for i := 0; i < 8+int(rng.Int31n(20)); i++ {
			a.Add([3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, 1}, rng.Float64()*10)
		}
		x, err := a.Solve()
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			s := 0.0
			for j := 0; j < 3; j++ {
				aij := a.xtx[i][j]
				if j < i {
					aij = a.xtx[j][i]
				}
				s += aij * x[j]
			}
			if !almostEqual(s, a.xty[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
