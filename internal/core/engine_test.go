package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// legacyAlign is the pre-Engine Align implementation, kept as the
// oracle: the Engine must reproduce its numerics on every input.
func legacyAlign(p Problem, opts Options) (*Result, error) {
	if _, _, err := validate(p); err != nil {
		return nil, err
	}
	beta, err := LearnWeights(p)
	if err != nil {
		return nil, err
	}
	return legacyRedistribute(p, opts, beta)
}

// legacyRedistribute is the pre-Engine disaggregation and
// re-aggregation (Eq. 14/17) for a given β: the full estimated matrix
// built with sparse.WeightedSum, its row sums as the denominator, the
// fallback patch, and the target as its column sums.
func legacyRedistribute(p Problem, opts Options, beta []float64) (*Result, error) {
	ns := len(p.Objective)
	dms := make([]*sparse.CSR, len(p.References))
	w := make([]float64, len(p.References))
	for k, r := range p.References {
		dms[k] = r.DM
		w[k] = beta[k]
		if mx := linalg.MaxAbs(r.DM.RowSums()); mx > 0 {
			w[k] = beta[k] / mx
		}
	}
	num, err := sparse.WeightedSum(dms, w)
	if err != nil {
		return nil, err
	}
	den := num.RowSums()
	scale := make([]float64, ns)
	var degenerate []int
	for i := 0; i < ns; i++ {
		if den[i] != 0 {
			scale[i] = p.Objective[i] / den[i]
		} else if p.Objective[i] != 0 {
			degenerate = append(degenerate, i)
		}
	}
	dmo := num.ScaleRows(scale)
	if opts.FallbackDM != nil && len(degenerate) > 0 {
		fb := opts.FallbackDM
		if fb.Rows != ns || fb.Cols != dmo.Cols {
			return nil, fmt.Errorf("core: fallback DM is %dx%d, want %dx%d", fb.Rows, fb.Cols, ns, dmo.Cols)
		}
		dmo = patchRows(dmo, fb, nil, degenerate, p.Objective)
	}
	target := dmo.ColSums()
	res := &Result{Target: target, Weights: beta}
	if opts.KeepDM {
		res.DM = dmo
	}
	return res, nil
}

// weightSystem returns the Eq. 15 design matrix of max-normalised
// reference sources and the max-normalised objective, as LearnWeights
// builds them, for driving the test-only oracle solvers.
func weightSystem(t testing.TB, p Problem) (*linalg.Matrix, []float64) {
	t.Helper()
	cols := make([][]float64, len(p.References))
	for k, r := range p.References {
		cols[k] = maxNormalise(referenceSource(r))
	}
	a, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return a, maxNormalise(p.Objective)
}

// engineProblem builds a randomized problem with empty rows, explicit
// source vectors and occasional single-reference cases.
func engineProblem(rng *rand.Rand, ns, nt, k int) Problem {
	refs := make([]Reference, k)
	for kk := 0; kk < k; kk++ {
		coo := sparse.NewCOO(ns, nt)
		for i := 0; i < ns; i++ {
			if rng.Float64() < 0.15 {
				continue // this reference has no support here
			}
			deg := 1 + rng.Intn(3)
			for d := 0; d < deg; d++ {
				coo.Add(i, rng.Intn(nt), rng.Float64()*1000)
			}
		}
		refs[kk] = Reference{Name: fmt.Sprintf("ref%d", kk), DM: coo.ToCSR()}
		if rng.Float64() < 0.3 {
			src := make([]float64, ns)
			for i := range src {
				src[i] = rng.Float64() * 500
			}
			refs[kk].Source = src
		}
	}
	obj := make([]float64, ns)
	for i := range obj {
		obj[i] = rng.Float64() * 800
	}
	return Problem{Objective: obj, References: refs}
}

func resultsClose(t *testing.T, tag string, got, want *Result, tol float64) {
	t.Helper()
	if len(got.Weights) != len(want.Weights) || len(got.Target) != len(want.Target) {
		t.Fatalf("%s: shape mismatch", tag)
	}
	for k := range want.Weights {
		if math.Abs(got.Weights[k]-want.Weights[k]) > tol {
			t.Fatalf("%s: weight %d = %v, want %v", tag, k, got.Weights[k], want.Weights[k])
		}
	}
	for j := range want.Target {
		if math.Abs(got.Target[j]-want.Target[j]) > tol*(1+math.Abs(want.Target[j])) {
			t.Fatalf("%s: target %d = %v, want %v", tag, j, got.Target[j], want.Target[j])
		}
	}
	if (got.DM == nil) != (want.DM == nil) {
		t.Fatalf("%s: DM presence mismatch", tag)
	}
	if want.DM != nil && !sparse.Equal(got.DM, want.DM, tol*1000) {
		t.Fatalf("%s: DM mismatch", tag)
	}
}

// TestEngineMatchesLegacyAlign drives the Engine and the legacy
// implementation over randomized problems — serial kernels first, then
// with the parallel sparse paths forced on.
func TestEngineMatchesLegacyAlign(t *testing.T) {
	for _, mode := range []string{"serial", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "parallel" {
				forceParallelKernels(t, 4)
			}
			rng := rand.New(rand.NewSource(21))
			for trial := 0; trial < 60; trial++ {
				ns := 1 + rng.Intn(50)
				nt := 1 + rng.Intn(12)
				k := 1 + rng.Intn(5)
				p := engineProblem(rng, ns, nt, k)
				opts := Options{KeepDM: trial%2 == 0}
				if trial%5 == 4 {
					opts.FallbackDM = engineProblem(rng, ns, nt, 1).References[0].DM
				}
				want, err := legacyAlign(p, opts)
				if err != nil {
					t.Fatalf("trial %d: legacy: %v", trial, err)
				}
				e, err := NewEngine(p.References, opts)
				if err != nil {
					t.Fatalf("trial %d: NewEngine: %v", trial, err)
				}
				got, err := e.Align(p.Objective)
				if err != nil {
					t.Fatalf("trial %d: engine: %v", trial, err)
				}
				resultsClose(t, fmt.Sprintf("trial %d", trial), got, want, 1e-12)

				// A second call must not be perturbed by scratch reuse.
				got2, err := e.Align(p.Objective)
				if err != nil {
					t.Fatalf("trial %d: second align: %v", trial, err)
				}
				resultsClose(t, fmt.Sprintf("trial %d (warm)", trial), got2, want, 1e-12)
			}
		})
	}
}

// TestEngineAlignAllMatchesSequential compares the batch path against
// per-call Align on the same engine.
func TestEngineAlignAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := engineProblem(rng, 80, 15, 4)
	e, err := NewEngine(p.References, Options{KeepDM: true})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 17)
	for a := range objectives {
		obj := make([]float64, 80)
		for i := range obj {
			obj[i] = rng.Float64() * 100
		}
		objectives[a] = obj
	}
	batch, err := e.AlignAll(objectives, 8)
	if err != nil {
		t.Fatal(err)
	}
	for a, obj := range objectives {
		want, err := e.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		resultsClose(t, fmt.Sprintf("objective %d", a), batch[a], want, 0)
	}
}

// TestEngineAlignAllError reports the first failure in input order.
func TestEngineAlignAllError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := engineProblem(rng, 10, 4, 2)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := [][]float64{p.Objective, make([]float64, 3), nil, p.Objective}
	results, err := e.AlignAll(objectives, 4)
	if err == nil {
		t.Fatal("mismatched objective accepted")
	}
	if results[0] == nil || results[3] == nil {
		t.Error("valid objectives not aligned alongside failures")
	}
	// The error must name the first bad index (1, the length mismatch).
	if want := "objective 1"; !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEngineAlignWithSources checks that source overrides reproduce an
// engine built with those sources baked in.
func TestEngineAlignWithSources(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := engineProblem(rng, 40, 8, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]float64, len(p.References))
	altRefs := append([]Reference(nil), p.References...)
	for k := range sources {
		src := make([]float64, 40)
		for i := range src {
			src[i] = rng.Float64() * 100
		}
		sources[k] = src
		altRefs[k].Source = src
	}
	want, err := Align(Problem{Objective: p.Objective, References: altRefs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.AlignWithSources(p.Objective, sources)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "sources override", got, want, 1e-12)

	// nil entries fall back to the reference's own source.
	got2, err := e.AlignWithSources(p.Objective, make([][]float64, len(p.References)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Align(p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "nil overrides", got2, plain, 0)

	if _, err := e.AlignWithSources(p.Objective, make([][]float64, 1)); err == nil {
		t.Error("wrong override count accepted")
	}
	bad := make([][]float64, len(p.References))
	bad[0] = make([]float64, 7)
	if _, err := e.AlignWithSources(p.Objective, bad); err == nil {
		t.Error("wrong override length accepted")
	}
}

// TestEngineZeroSupportRows checks the precomputed degenerate mask.
func TestEngineZeroSupportRows(t *testing.T) {
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}, {2, 0}})
	dm1 := mustCSR(t, [][]float64{{2, 0}, {0, 0}, {0, 3}})
	e, err := NewEngine([]Reference{{DM: dm0}, {DM: dm1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false}
	got := e.ZeroSupportRows()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("zeroRow[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEngineValidation mirrors TestAlignValidation at the Engine level.
func TestEngineValidation(t *testing.T) {
	dm := mustCSR(t, [][]float64{{1, 1}})
	if _, err := NewEngine(nil, Options{}); err != ErrNoReferences {
		t.Errorf("err = %v, want ErrNoReferences", err)
	}
	if _, err := NewEngine([]Reference{{DM: nil}}, Options{}); err == nil {
		t.Error("nil DM accepted")
	}
	dm2 := mustCSR(t, [][]float64{{1, 1, 1}})
	if _, err := NewEngine([]Reference{{DM: dm}, {DM: dm2}}, Options{}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewEngine([]Reference{{DM: dm, Source: []float64{1, 2}}}, Options{}); err == nil {
		t.Error("source length mismatch accepted")
	}
	e, err := NewEngine([]Reference{{DM: dm}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Align(nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v, want ErrNoSourceUnits", err)
	}
	if _, err := e.Align([]float64{1, 2}); err == nil {
		t.Error("objective length mismatch accepted")
	}
}
