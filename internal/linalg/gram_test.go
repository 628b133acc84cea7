package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randTall builds a random m×k design matrix with non-negative entries
// (GeoAlign's reference columns are normalised aggregates) and a random
// right-hand side. Tall systems (m > 8k) keep the dense NNLS passive-set
// solver on its normal-equations branch, which is the regime the Gram
// solvers must reproduce to high accuracy.
func randTall(rng *rand.Rand, m, k int) (*Matrix, []float64) {
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// lsObjective evaluates ½‖A·x − b‖² via the normal equations so it can
// be computed for both dense and Gram solutions on equal footing.
func lsObjective(a *Matrix, b, x []float64) float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	n := Norm2(r)
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

func TestNNLSGramMatchesDenseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*k + 1 + rng.Intn(200)
		a, b := randTall(rng, m, k)

		dense, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		g := a.Gram()
		c := a.MulVecT(b)
		tol := GramTolerance(matInfNorm(a), Norm2(b), k)
		gram, err := NNLSGram(g, c, tol)
		if err != nil {
			t.Fatalf("trial %d: NNLSGram: %v", trial, err)
		}
		scale := 1 + MaxAbs(dense)
		for j := range dense {
			if math.Abs(dense[j]-gram[j]) > 1e-9*scale {
				t.Fatalf("trial %d (m=%d k=%d): component %d differs: dense %v gram %v",
					trial, m, k, j, dense, gram)
			}
		}
	}
}

func TestNNLSGramIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(4)
		m := 8*k + 1 + rng.Intn(100)
		a, b := randTall(rng, m, k)
		// Make two columns nearly collinear so the passive-set Gram
		// blocks are badly conditioned.
		for i := 0; i < m; i++ {
			a.Set(i, 1, a.At(i, 0)*(1+1e-7*rng.Float64()))
		}

		dense, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		tol := GramTolerance(matInfNorm(a), Norm2(b), k)
		gram, err := NNLSGram(a.Gram(), a.MulVecT(b), tol)
		if err != nil {
			t.Fatalf("trial %d: NNLSGram: %v", trial, err)
		}
		// Near-duplicate columns make individual coefficients
		// non-unique; the objective value is the well-posed quantity.
		od, og := lsObjective(a, b, dense), lsObjective(a, b, gram)
		if relDiff(od, og) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: dense %.15g gram %.15g", trial, od, og)
		}
		for j, v := range gram {
			if v < 0 {
				t.Fatalf("trial %d: gram solution infeasible at %d: %v", trial, j, gram)
			}
		}
	}
}

func TestSimplexLSGramWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*(k+1) + 1 + rng.Intn(150)
		a, b := randTall(rng, m, k)
		g := a.Gram()
		c := a.MulVecT(b)
		ainf, bnorm := matInfNorm(a), Norm2(b)

		cold, err := SimplexLeastSquaresGram(g, c, ainf, bnorm)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		// Warm-start from the cold solution itself, from a perturbed
		// copy, and from a deliberately wrong seed: all must land on
		// the same optimum.
		seeds := [][]float64{cold, make([]float64, k), make([]float64, k)}
		copy(seeds[1], cold)
		for j := range seeds[1] {
			seeds[1][j] = math.Max(0, seeds[1][j]+0.05*rng.NormFloat64())
		}
		for j := range seeds[2] {
			seeds[2][j] = rng.Float64()
		}
		for si, seed := range seeds {
			warm, err := SimplexLeastSquaresGramWarm(g, c, ainf, bnorm, seed)
			if err != nil {
				t.Fatalf("trial %d seed %d: warm: %v", trial, si, err)
			}
			for j := range cold {
				if math.Abs(cold[j]-warm[j]) > 1e-9 {
					t.Fatalf("trial %d seed %d: warm diverges: cold %v warm %v", trial, si, cold, warm)
				}
			}
		}
	}
}

func TestParallelGramMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, m := range []int{0, 1, 100, gramBlockRows, gramBlockRows + 1, 3*gramBlockRows + 17, gramParallelMin + 999} {
		k := 1 + rng.Intn(8)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		want := a.Gram()
		got := ParallelGram(a)
		if got.Rows != k || got.Cols != k {
			t.Fatalf("m=%d: ParallelGram shape %dx%d", m, got.Rows, got.Cols)
		}
		for i := range want.Data {
			// The block reduction regroups the row sums, so allow
			// rounding-level divergence from the single-pass Gram.
			if relDiff(want.Data[i], got.Data[i]) > 1e-12 {
				t.Fatalf("m=%d k=%d: entry %d: serial %v parallel %v", m, k, i, want.Data[i], got.Data[i])
			}
		}
	}
}

func TestParallelGramDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := NewMatrix(gramParallelMin+4321, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	first := ParallelGram(a)
	for rep := 0; rep < 5; rep++ {
		again := ParallelGram(a)
		for i := range first.Data {
			if first.Data[i] != again.Data[i] {
				t.Fatalf("rep %d: ParallelGram not deterministic at %d", rep, i)
			}
		}
	}
}

func TestApplyTIntoMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, m := range []int{1, 57, gramBlockRows, gramBlockRows + 1, 2*gramBlockRows + 300, gramParallelMin + 123} {
		k := 1 + rng.Intn(7)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			if rng.Intn(10) == 0 {
				a.Data[i] = 0
			}
		}
		gs := NewGramSystem(a)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				b[i] = 0
			}
		}
		want := a.MulVecT(b)
		got := make([]float64, k)
		gs.ApplyTInto(got, b)
		// The blocked reduction regroups sums; rounding-level agreement.
		for j := range want {
			if relDiff(want[j], got[j]) > 1e-12 {
				t.Fatalf("m=%d: component %d: MulVecT %v ApplyTInto %v", m, j, want[j], got[j])
			}
		}
		// Repeated calls through the pool must be bit-identical.
		again := make([]float64, k)
		gs.ApplyTInto(again, b)
		for j := range got {
			if got[j] != again[j] {
				t.Fatalf("m=%d: ApplyTInto not deterministic at %d", m, j)
			}
		}
	}
}

func TestMulATBMatchesApplyTInto(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, m := range []int{1, 64, gramBlockRows + 11, gramParallelMin + 77} {
		k := 1 + rng.Intn(6)
		n := 1 + rng.Intn(9)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		gs := NewGramSystem(a)
		cols := make([][]float64, n)
		for o := range cols {
			col := make([]float64, m)
			for i := range col {
				col[i] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					col[i] = 0
				}
			}
			cols[o] = col
		}
		prod := MulATB(a, cols)
		if prod.Rows != k || prod.Cols != n {
			t.Fatalf("MulATB shape %dx%d, want %dx%d", prod.Rows, prod.Cols, k, n)
		}
		single := make([]float64, k)
		for o := 0; o < n; o++ {
			gs.ApplyTInto(single, cols[o])
			for j := 0; j < k; j++ {
				// Bit-identical: MulATB runs the same block
				// decomposition and per-row arithmetic per column.
				if prod.At(j, o) != single[j] {
					t.Fatalf("m=%d col %d row %d: MulATB %v ApplyTInto %v",
						m, o, j, prod.At(j, o), single[j])
				}
			}
		}
	}
	if out := MulATB(NewMatrix(3, 2), nil); out.Rows != 2 || out.Cols != 0 {
		t.Fatalf("MulATB with no columns: got %dx%d", out.Rows, out.Cols)
	}
}
