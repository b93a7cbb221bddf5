package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fit3 streams (X, y) into a normal3 and solves it.
func fit3(X [][3]float64, y []float64) ([3]float64, error) {
	var a normal3
	for i, x := range X {
		a.add(x, y[i])
	}
	return a.solve()
}

func TestSolveLinearExact(t *testing.T) {
	// Three orthogonal unit samples make XᵀX the identity and Xᵀy = y,
	// so solve sees exactly the system it is handed; a scaled, permuted
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
	if _, err := fit3([][3]float64{{1, 2, 1}, {2, 4, 1}, {3, 6, 1}, {4, 8, 1}}, []float64{1, 2, 3, 4}); err != errSingular {
		t.Errorf("err = %v, want errSingular", err)
	}
}

func TestSolveDoesNotConsumeAccumulator(t *testing.T) {
	var a normal3
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		a.add([3]float64{rng.Float64(), rng.Float64(), 1}, rng.Float64())
	}
	before := a
	x1, err := a.solve()
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := a.solve()
	if a != before || x1 != x2 || a.n != 10 {
		t.Error("solve changed the accumulator")
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
	var y []float64
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
}

func TestLeastSquaresErrors(t *testing.T) {
	var empty normal3
	if _, err := empty.solve(); err != errSingular {
		t.Errorf("empty system: err = %v, want errSingular", err)
	}
	// Fewer samples than features.
	if _, err := fit3([][3]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2}); err != errSingular {
		t.Errorf("underdetermined system: err = %v, want errSingular", err)
	}
	// Rank-deficient: duplicate column.
	if _, err := fit3([][3]float64{{1, 1, 1}, {2, 2, 1}, {3, 3, 1}}, []float64{1, 2, 3}); err != errSingular {
		t.Errorf("collinear features: err = %v, want errSingular", err)
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	// For random well-conditioned systems, the solution must satisfy
	// the normal equations XᵀX·beta = Xᵀy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a normal3
		for i := 0; i < 8+int(rng.Int31n(20)); i++ {
			a.add([3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, 1}, rng.Float64()*10)
		}
		x, err := a.solve()
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

// TestNormal3MatchesReference is the differential fence under the
// trained model's bit-identity: on seeded three-feature systems of
// every shape training meets — well conditioned, badly scaled, needing
// a pivot, with an exactly-zero elimination factor, one to a few
// samples, collinear — every solve result (the coefficients' bits, or
// errSingular) hashes to a digest pinned while the generic
// slice-of-slices solver training used before normal3 still agreed
// with it system by system.
func TestNormal3MatchesReference(t *testing.T) {
	const want = 0x6cc37ccc359d4cab
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
	h := fnv.New64a()
	var buf []byte
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 17, 400} {
			for rep := 0; rep < 20; rep++ {
				var acc normal3
				for i := 0; i < n; i++ {
					acc.add(sh.row(), 5*rng.NormFloat64())
				}
				if acc.n != n {
					t.Fatalf("%s: n = %d after %d samples", sh.name, acc.n, n)
				}
				got, err := acc.solve()
				buf = buf[:0]
				switch err {
				case nil:
					solved++
					buf = append(buf, 0)
					for _, v := range got {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
					}
				case errSingular:
					singular++
					buf = append(buf, 1)
				default:
					t.Fatalf("%s n=%d: %v", sh.name, n, err)
				}
				h.Write(buf)
			}
		}
	}
	if solved != 466 || singular != 654 {
		t.Errorf("%d solved and %d singular systems, want 466 and 654", solved, singular)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("solve digest %#016x, want %#016x", got, want)
	}
}

// add appends the sample (x, y) to the system: the general row, which
// the tests use to prove solve, addRow and addY against.
func (a *normal3) add(x [3]float64, y float64) {
	a.n++
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			a.xtx[i][j] += float64(x[i] * x[j])
		}
		a.xty[i] += float64(x[i] * y)
	}
}

// TestAddAffineMatchesAdd: a row (x, t, 1) added with its products
// formed once, XᵀX by addRow and Xᵀy by addY, leaves the system's sums
// bit for bit as adding it term by term does.
func TestAddAffineMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var a, b normal3
	for i := 0; i < 400; i++ {
		x, tpi, y := 0.3+300*rng.Float64(), rng.Float64()/8, 5*rng.NormFloat64()
		a.add([3]float64{x, tpi, 1}, y)
		r := affineRow(x, tpi)
		b.addRow(&r)
		b.addY(&r, y)
		if a != b {
			t.Fatalf("after %d rows: add gives %+v, addRow and addY %+v", i+1, a, b)
		}
	}
}
