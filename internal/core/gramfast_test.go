package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg/linalgtest"
)

// tallProblem builds a problem tall enough (ns ≫ 8k) that the dense
// NNLS passive-set solver stays on its normal-equations branch — the
// regime where the Gram solver and the dense oracle must agree to 1e-9.
func tallProblem(rng *rand.Rand, ns, k int) Problem {
	return engineProblem(rng, ns, 6, k)
}

// TestEngineGramMatchesDenseSolver drives the engine's Gram solve and
// the test-only dense solver over randomized tall problems; the learned
// weights must agree to 1e-9 absolute (β lives on the simplex, so
// absolute and relative coincide in scale).
func TestEngineGramMatchesDenseSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		ns := 8*(k+1) + 10 + rng.Intn(200)
		p := tallProblem(rng, ns, k)

		fast, err := NewEngine(p.References, Options{})
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		bf, err := fast.LearnWeights(p.Objective)
		if err != nil {
			t.Fatalf("trial %d: gram LearnWeights: %v", trial, err)
		}
		a, b := weightSystem(t, p)
		bd, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		for j := range bd {
			if math.Abs(bf[j]-bd[j]) > 1e-9 {
				t.Fatalf("trial %d (ns=%d k=%d): β differs: gram %v dense %v", trial, ns, k, bf, bd)
			}
		}

		// The free function must agree with the engine bit for bit:
		// both route through the same Gram code path.
		free, err := LearnWeights(p)
		if err != nil {
			t.Fatalf("trial %d: free LearnWeights: %v", trial, err)
		}
		for j := range free {
			if free[j] != bf[j] {
				t.Fatalf("trial %d: free fn diverges from engine: %v vs %v", trial, free, bf)
			}
		}

		// Full Align against the legacy redistribution of the dense
		// weights: targets within 1e-9 relative.
		rf, err := fast.Align(p.Objective)
		if err != nil {
			t.Fatalf("trial %d: gram Align: %v", trial, err)
		}
		rd, err := legacyRedistribute(p, Options{}, bd)
		if err != nil {
			t.Fatalf("trial %d: dense redistribution: %v", trial, err)
		}
		for j := range rd.Target {
			if math.Abs(rf.Target[j]-rd.Target[j]) > 1e-9*(1+math.Abs(rd.Target[j])) {
				t.Fatalf("trial %d: target %d: gram %v dense %v", trial, j, rf.Target[j], rd.Target[j])
			}
		}
	}
}

// TestEngineDenseSolverAlignAll checks the batch path against the
// test-only dense solver: every warm-started, batch-prepared β agrees
// with a cold dense solve of the same objective to 1e-9.
func TestEngineDenseSolverAlignAll(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	p := tallProblem(rng, 120, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 9)
	for a := range objectives {
		obj := make([]float64, 120)
		for i := range obj {
			obj[i] = rng.Float64() * 50
		}
		objectives[a] = obj
	}
	batch, err := e.AlignAll(objectives, 4)
	if err != nil {
		t.Fatal(err)
	}
	for o, obj := range objectives {
		a, b := weightSystem(t, Problem{Objective: obj, References: p.References})
		want, err := linalgtest.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(batch[o].Weights[j]-want[j]) > 1e-9 {
				t.Fatalf("objective %d: β differs: batch %v dense %v", o, batch[o].Weights, want)
			}
		}
	}
}

// TestEngineBatchWarmStartStress hammers the warm-started batch path
// with many objectives over several worker counts; every result must be
// bit-identical to the sequential cold-started solve. Run under -race
// in CI, this also exercises the shared GramSystem for data races.
func TestEngineBatchWarmStartStress(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, cfg := range []struct{ ns, k, n int }{
		{60, 2, 40},
		{200, 5, 64},
		{35, 4, 25},
	} {
		p := engineProblem(rng, cfg.ns, 9, cfg.k)
		e, err := NewEngine(p.References, Options{})
		if err != nil {
			t.Fatal(err)
		}
		objectives := make([][]float64, cfg.n)
		for a := range objectives {
			obj := make([]float64, cfg.ns)
			for i := range obj {
				obj[i] = rng.Float64() * 300
				if rng.Intn(12) == 0 {
					obj[i] = 0
				}
			}
			objectives[a] = obj
		}
		want := make([]*Result, cfg.n)
		for a, obj := range objectives {
			want[a], err = e.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 7, 16} {
			batch, err := e.AlignAll(objectives, workers)
			if err != nil {
				t.Fatalf("ns=%d k=%d workers=%d: %v", cfg.ns, cfg.k, workers, err)
			}
			for a := range objectives {
				resultsClose(t, fmt.Sprintf("ns=%d k=%d workers=%d objective %d", cfg.ns, cfg.k, workers, a), batch[a], want[a], 0)
			}
		}
	}
}
