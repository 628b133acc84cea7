package linalg_test

// Tests of the test-only reference solvers in linalgtest and of the
// Gram-form production solver against them. They live in the external
// test package because linalgtest imports linalg.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/linalgtest"
)

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// randTall builds a random m×k design matrix with non-negative entries
// and a random right-hand side; tall systems keep the dense NNLS
// passive-set solver on its normal-equations branch.
func randTall(rng *rand.Rand, m, k int) (*linalg.Matrix, []float64) {
	a := linalg.NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// lsObjective evaluates ½‖A·x − b‖².
func lsObjective(a *linalg.Matrix, b, x []float64) float64 {
	n := linalg.Norm2(linalg.Sub(a.MulVec(x), b))
	return 0.5 * n * n
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

// infNorm is ‖A‖∞ as the production solvers compute it.
func infNorm(a *linalg.Matrix) float64 { return linalg.NewGramSystem(a).AInf }

func onSimplex(x []float64, tol float64) bool {
	var s float64
	for _, v := range x {
		if v < -tol {
			return false
		}
		s += v
	}
	return math.Abs(s-1) <= tol
}

func TestSimplexLSSingleColumn(t *testing.T) {
	a, _ := linalg.MatrixFromColumns([][]float64{{1, 2, 3}})
	beta, err := linalgtest.SimplexLeastSquares(a, []float64{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(beta, []float64{1}, 0) {
		t.Errorf("beta = %v, want [1]", beta)
	}
}

func TestSimplexLSNoColumns(t *testing.T) {
	if _, err := linalgtest.SimplexLeastSquares(linalg.NewMatrix(3, 0), []float64{1, 2, 3}); err != linalg.ErrNoColumns {
		t.Fatalf("err = %v, want linalg.ErrNoColumns", err)
	}
}

func TestSimplexLSDimensionMismatch(t *testing.T) {
	if _, err := linalgtest.SimplexLeastSquares(linalg.NewMatrix(3, 2), []float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSimplexLSExactVertex(t *testing.T) {
	// b equals the second column exactly: the optimum is the vertex e2.
	cols := [][]float64{
		{1, 0, 0, 5},
		{0, 1, 0, 0},
		{0.2, 0.1, 1, 2},
	}
	a, _ := linalg.MatrixFromColumns(cols)
	beta, err := linalgtest.SimplexLeastSquares(a, []float64{0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-9) {
		t.Fatalf("beta off simplex: %v", beta)
	}
	if !vecAlmostEq(beta, []float64{0, 1, 0}, 1e-6) {
		t.Errorf("beta = %v, want e2", beta)
	}
}

func TestSimplexLSExactMixture(t *testing.T) {
	// b is a known convex combination of the columns; the solver must
	// recover it when the columns are independent.
	rng := rand.New(rand.NewSource(3))
	m, k := 30, 4
	a := linalg.NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	want := []float64{0.1, 0.4, 0.2, 0.3}
	b := a.MulVec(want)
	beta, err := linalgtest.SimplexLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-8) {
		t.Fatalf("beta off simplex: %v", beta)
	}
	if !vecAlmostEq(beta, want, 1e-5) {
		t.Errorf("beta = %v, want %v", beta, want)
	}
}

func TestSimplexLSZeroObjective(t *testing.T) {
	// b = 0: any simplex point with minimal ‖Aβ‖ is fine, but the result
	// must at least be a valid simplex vector.
	a, _ := linalg.MatrixFromColumns([][]float64{{1, 0}, {0, 1}})
	beta, err := linalgtest.SimplexLeastSquares(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-9) {
		t.Errorf("beta off simplex: %v", beta)
	}
}

func TestSimplexLSFeasibilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + rng.Intn(30)
		k := 2 + rng.Intn(6)
		a := linalg.NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.Float64() // attribute-like non-negative cols
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()
		}
		beta, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			return false
		}
		return onSimplex(beta, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The active-set path and the projected-gradient path must agree on the
// objective value (the minimiser may be non-unique, the optimum is).
func TestSimplexLSAgreesWithProjectedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		m := 10 + rng.Intn(40)
		k := 2 + rng.Intn(5)
		a := linalg.NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()
		}
		b1, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := linalgtest.SimplexLeastSquaresPG(a, b, 20000, 1e-14)
		if err != nil {
			t.Fatal(err)
		}
		o1 := linalg.Norm2(linalg.Sub(a.MulVec(b1), b))
		o2 := linalg.Norm2(linalg.Sub(a.MulVec(b2), b))
		if o1 > o2+1e-5*(o2+1) {
			t.Errorf("trial %d: active-set objective %v worse than PG %v (beta %v vs %v)",
				trial, o1, o2, b1, b2)
		}
	}
}

func TestProjectSimplexBasics(t *testing.T) {
	v := []float64{0.5, 0.5}
	linalgtest.ProjectSimplex(v)
	if !vecAlmostEq(v, []float64{0.5, 0.5}, 1e-12) {
		t.Errorf("already-feasible point moved: %v", v)
	}
	v = []float64{2, 0}
	linalgtest.ProjectSimplex(v)
	if !vecAlmostEq(v, []float64{1, 0}, 1e-12) {
		t.Errorf("projection = %v, want [1 0]", v)
	}
	v = []float64{-1, -1}
	linalgtest.ProjectSimplex(v)
	if !onSimplex(v, 1e-12) {
		t.Errorf("projection of negative point off simplex: %v", v)
	}
}

func TestProjectSimplexIsProjectionQuick(t *testing.T) {
	// Property: result is on the simplex, and no feasible point sampled at
	// random is closer to the input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 2
		}
		p := make([]float64, n)
		copy(p, v)
		linalgtest.ProjectSimplex(p)
		if !onSimplex(p, 1e-9) {
			return false
		}
		dp := linalg.Norm2(linalg.Sub(p, v))
		for trial := 0; trial < 25; trial++ {
			q := randSimplexPoint(rng, n)
			if linalg.Norm2(linalg.Sub(q, v)) < dp-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randSimplexPoint(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	var s float64
	for i := range q {
		q[i] = -math.Log(rng.Float64() + 1e-300)
		s += q[i]
	}
	for i := range q {
		q[i] /= s
	}
	return q
}

func TestSortDescending(t *testing.T) {
	v := []float64{3, -1, 4, 1, 5, 9, 2, 6}
	linalgtest.SortDescending(v)
	for i := 1; i < len(v); i++ {
		if v[i-1] < v[i] {
			t.Fatalf("not descending at %d: %v", i, v)
		}
	}
}

func TestSimplexLSGramMatchesDenseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*(k+1) + 1 + rng.Intn(200)
		a, b := randTall(rng, m, k)

		dense, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := linalg.SimplexLeastSquaresGram(a.Gram(), a.MulVecT(b), infNorm(a), linalg.Norm2(b))
		if err != nil {
			t.Fatalf("trial %d: gram: %v", trial, err)
		}
		if !onSimplex(gram, 1e-12) {
			t.Fatalf("trial %d: gram solution off simplex: %v", trial, gram)
		}
		for j := range dense {
			if math.Abs(dense[j]-gram[j]) > 1e-9 {
				t.Fatalf("trial %d (m=%d k=%d): β differs at %d: dense %v gram %v",
					trial, a.Rows, k, j, dense, gram)
			}
		}
	}
}

func TestSimplexLSGramIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(4)
		m := 8*(k+1) + 1 + rng.Intn(100)
		a, b := randTall(rng, m, k)
		for i := 0; i < m; i++ {
			a.Set(i, 2, a.At(i, 1)*(1+1e-8*rng.Float64()))
		}

		dense, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := linalg.SimplexLeastSquaresGram(a.Gram(), a.MulVecT(b), infNorm(a), linalg.Norm2(b))
		if err != nil {
			t.Fatalf("trial %d: gram: %v", trial, err)
		}
		od, og := lsObjective(a, b, dense), lsObjective(a, b, gram)
		if relDiff(od, og) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: dense %.15g gram %.15g (β dense %v gram %v)",
				trial, od, og, dense, gram)
		}
		if !onSimplex(gram, 1e-12) {
			t.Fatalf("trial %d: gram solution off simplex: %v", trial, gram)
		}
	}
}

func TestGramDegenerateCases(t *testing.T) {
	mk := func(rows ...[]float64) *linalg.Matrix {
		m, err := linalg.MatrixFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		a    *linalg.Matrix
		b    []float64
	}{
		{"k=1", mk([]float64{2}, []float64{3}, []float64{1}), []float64{1, 2, 0.5}},
		{"zero b", mk([]float64{1, 2}, []float64{3, 4}, []float64{5, 6}), []float64{0, 0, 0}},
		{"b orthogonal to cone", mk([]float64{1, 0}, []float64{0, 1}, []float64{0, 0}), []float64{-1, -1, 0}},
		{"duplicate columns", mk([]float64{1, 1}, []float64{2, 2}, []float64{3, 3}), []float64{1, 2, 3}},
		{"zero matrix", mk([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}), []float64{1, 2, 3}},
		{"rank deficient", mk([]float64{1, 2, 3}, []float64{2, 4, 6}, []float64{3, 6, 9}, []float64{1, 2, 3}), []float64{1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dense, err := linalgtest.SimplexLeastSquares(tc.a, tc.b)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			gram, err := linalg.SimplexLeastSquaresGram(tc.a.Gram(), tc.a.MulVecT(tc.b), infNorm(tc.a), linalg.Norm2(tc.b))
			if err != nil {
				t.Fatalf("gram: %v", err)
			}
			if len(gram) != len(dense) {
				t.Fatalf("length mismatch: dense %v gram %v", dense, gram)
			}
			od, og := lsObjective(tc.a, tc.b, dense), lsObjective(tc.a, tc.b, gram)
			if relDiff(od, og) > 1e-9 {
				t.Fatalf("objective mismatch: dense %.15g (%v) gram %.15g (%v)", od, dense, og, gram)
			}
			if !onSimplex(gram, 1e-12) {
				t.Fatalf("gram solution off simplex: %v", gram)
			}
		})
	}

	if _, err := linalg.SimplexLeastSquaresGram(linalg.NewMatrix(0, 0), nil, 0, 0); err != linalg.ErrNoColumns {
		t.Fatalf("k=0 should return linalg.ErrNoColumns, got %v", err)
	}
	if got, err := linalg.SimplexLeastSquaresGram(linalg.NewMatrix(1, 1), []float64{5}, 1, 1); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 fast path: got %v, %v", got, err)
	}
	if x, err := linalg.NNLSGram(linalg.NewMatrix(0, 0), nil, 0); err != nil || x != nil {
		t.Fatalf("empty NNLSGram: got %v, %v", x, err)
	}
}

func TestSimplexLSPGGramMatchesPG(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		m := 20 + rng.Intn(100)
		a, b := randTall(rng, m, k)

		pg, err := linalgtest.SimplexLeastSquaresPG(a, b, 4000, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: PG: %v", trial, err)
		}
		g := a.Gram()
		c := a.MulVecT(b)
		pgg, err := linalgtest.SimplexLeastSquaresPGGram(g, c, 0, 4000, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: PGGram: %v", trial, err)
		}
		// Both run the identical FISTA recursion; the gradient is
		// algebraically equal (Aᵀ(Ay−b) vs Gy−c) but rounded
		// differently, so compare objective values.
		op, og := lsObjective(a, b, pg), lsObjective(a, b, pgg)
		if relDiff(op, og) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: PG %.15g PGGram %.15g", trial, op, og)
		}
		if !onSimplex(pgg, 1e-9) {
			t.Fatalf("trial %d: PGGram off simplex: %v", trial, pgg)
		}
	}
}

func TestGramSystemSimplexLS(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		m := 8*(k+1) + 1 + rng.Intn(300)
		a, b := randTall(rng, m, k)
		gs := linalg.NewGramSystem(a)
		if gs.Rows() != m || gs.Cols() != k {
			t.Fatalf("GramSystem dims %dx%d, want %dx%d", gs.Rows(), gs.Cols(), m, k)
		}

		dense, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		fast, err := gs.SimplexLS(b, nil)
		if err != nil {
			t.Fatalf("trial %d: SimplexLS: %v", trial, err)
		}
		for j := range dense {
			if math.Abs(dense[j]-fast[j]) > 1e-9 {
				t.Fatalf("trial %d: β differs: dense %v fast %v", trial, dense, fast)
			}
		}
		warm, err := gs.SimplexLS(b, fast)
		if err != nil {
			t.Fatalf("trial %d: warm SimplexLS: %v", trial, err)
		}
		for j := range fast {
			if math.Abs(fast[j]-warm[j]) > 1e-9 {
				t.Fatalf("trial %d: warm differs: %v vs %v", trial, fast, warm)
			}
		}

		pg, err := linalgtest.SimplexLSPG(gs, b, 4000, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: SimplexLSPG: %v", trial, err)
		}
		od, og := lsObjective(a, b, dense), lsObjective(a, b, pg)
		// FISTA converges to the same optimum but stops on a step-size
		// criterion; allow a looser objective agreement.
		if relDiff(od, og) > 1e-6 {
			t.Fatalf("trial %d: PG objective %.15g vs dense %.15g", trial, og, od)
		}
	}

	gs := linalg.NewGramSystem(linalg.NewMatrix(3, 0))
	if _, err := gs.SimplexLS([]float64{1, 2, 3}, nil); err != linalg.ErrNoColumns {
		t.Fatalf("k=0 SimplexLS: want linalg.ErrNoColumns, got %v", err)
	}
	if _, err := linalgtest.SimplexLSPG(gs, []float64{1, 2, 3}, 0, 0); err != linalg.ErrNoColumns {
		t.Fatalf("k=0 SimplexLSPG: want linalg.ErrNoColumns, got %v", err)
	}
	gs1 := linalg.NewGramSystem(linalg.NewMatrix(4, 1))
	if got, err := gs1.SimplexLS([]float64{1, 2, 3, 4}, nil); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 SimplexLS: got %v, %v", got, err)
	}
	if _, err := gs1.SimplexLS([]float64{1}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestProjectSimplexConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	inputs := make([][]float64, 64)
	want := make([][]float64, len(inputs))
	for i := range inputs {
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		inputs[i] = v
		w := make([]float64, n)
		copy(w, v)
		linalgtest.ProjectSimplex(w)
		want[i] = w
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, v := range inputs {
				got := make([]float64, len(v))
				copy(got, v)
				linalgtest.ProjectSimplex(got)
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("input %d: concurrent projection differs at %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSimplexLSSolverAblation compares GeoAlign's weight solvers —
// the production Gram-form active set against the test-only dense
// active set and the dense and Gram-form projected gradient — at the
// paper's full US problem shape (30238 source units, 7 references).
func BenchmarkSimplexLSSolverAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := linalg.NewMatrix(30238, 7)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.Run("active-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalgtest.SimplexLeastSquares(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projected-gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalgtest.SimplexLeastSquaresPG(a, rhs, 500, 1e-10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gram-active-set", func(b *testing.B) {
		gs := linalg.NewGramSystem(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gs.SimplexLS(rhs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gram-projected-gradient", func(b *testing.B) {
		gs := linalg.NewGramSystem(a)
		lip := linalgtest.PowerIterSym(gs.G, 200)
		c := make([]float64, gs.Cols())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gs.ApplyTInto(c, rhs)
			if _, err := linalgtest.SimplexLeastSquaresPGGram(gs.G, c, lip, 500, 1e-10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
