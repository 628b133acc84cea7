package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"geoalign/internal/sparse"
)

// TestEngineBatchBitIdentical pins the serving contract: the fused
// batch redistribution must be bitwise identical to per-call Align —
// including partial tail chunks, multiple workers, and chunk counts
// around the redistChunk boundary. TestEngineBatchParityTable extends
// this to the retained-DM and fallback configurations.
func TestEngineBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, redistChunk - 1, redistChunk, redistChunk + 1, 3*redistChunk + 5} {
		for _, workers := range []int{1, 3} {
			p := engineProblem(rng, 60, 13, 5)
			e, err := NewEngine(p.References, Options{})
			if err != nil {
				t.Fatal(err)
			}
			objectives := make([][]float64, n)
			for a := range objectives {
				obj := make([]float64, 60)
				for i := range obj {
					obj[i] = rng.Float64() * 50
				}
				objectives[a] = obj
			}
			batch, err := e.AlignAll(objectives, workers)
			if err != nil {
				t.Fatal(err)
			}
			for a, obj := range objectives {
				want, err := e.Align(obj)
				if err != nil {
					t.Fatal(err)
				}
				resultsClose(t, fmt.Sprintf("n=%d workers=%d objective %d", n, workers, a), batch[a], want, 0)
			}
		}
	}
}

// TestEngineBatchParityTable pins the one-kernel contract across chunk
// widths and engine configurations: AlignAll at any width equals
// per-call Align (or AlignWithSources) bit for bit — weights, targets
// and retained estimates — both match legacyAlign at 1e-12, every
// retained estimate preserves volume, and retaining the estimate never
// changes the target. The parallel mode also runs the kernel's
// reference products at different worker counts on the two sides (a
// single call takes three, each chunk of the width-33 batch one).
func TestEngineBatchParityTable(t *testing.T) {
	for _, mode := range []string{"serial", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "parallel" {
				forceParallelKernels(t, 3)
			}
			const ns, nt, k = 60, 13, 4
			rng := rand.New(rand.NewSource(91))
			// Every reference is zero on the degenerate rows, so the fallback
			// configuration has rows to patch.
			degenerate := map[int]bool{3: true, 17: true, 41: true}
			refs := engineProblem(rng, ns, nt, k).References
			for kk := range refs {
				coo := sparse.NewCOO(ns, nt)
				for i := 0; i < ns; i++ {
					if degenerate[i] {
						continue
					}
					cols, vals := refs[kk].DM.Row(i)
					for p, c := range cols {
						coo.Add(i, c, vals[p])
					}
				}
				refs[kk].DM = coo.ToCSR()
			}
			fallback := engineProblem(rng, ns, nt, 1).References[0].DM
			// Source overrides for all but the last reference; nil keeps the
			// reference's own source.
			sources := make([][]float64, k)
			baked := append([]Reference(nil), refs...)
			for kk := 0; kk < k-1; kk++ {
				src := make([]float64, ns)
				for i := range src {
					src[i] = rng.Float64() * 400
				}
				sources[kk] = src
				baked[kk].Source = src
			}

			plain, err := NewEngine(refs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []struct {
				name string
				opts Options
			}{
				{"discard", Options{}},
				{"keep-dm", Options{KeepDM: true}},
				{"keep-dm+fallback", Options{KeepDM: true, FallbackDM: fallback}},
			} {
				e, err := NewEngine(refs, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				// AlignAll takes no overrides: the batch side of the override
				// rows runs on an engine with the sources baked in.
				eBaked, err := NewEngine(baked, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, override := range []bool{false, true} {
					for _, width := range []int{1, 2, 15, 16, 17, 33} {
						objectives := make([][]float64, width)
						for a := range objectives {
							obj := make([]float64, ns)
							for i := range obj {
								obj[i] = rng.Float64() * 50
							}
							objectives[a] = obj
						}
						batchEngine, oracleRefs := e, refs
						if override {
							batchEngine, oracleRefs = eBaked, baked
						}
						batch, err := batchEngine.AlignAll(objectives, 2)
						if err != nil {
							t.Fatal(err)
						}
						for a, obj := range objectives {
							tag := fmt.Sprintf("%s override=%v width=%d objective %d", cfg.name, override, width, a)
							var single *Result
							if override {
								single, err = e.AlignWithSources(obj, sources)
							} else {
								single, err = e.Align(obj)
							}
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							resultsClose(t, tag+" (batch vs single)", batch[a], single, 0)
							want, err := legacyAlign(Problem{Objective: obj, References: oracleRefs}, cfg.opts)
							if err != nil {
								t.Fatalf("%s: legacy: %v", tag, err)
							}
							resultsClose(t, tag+" (single vs legacy)", single, want, 1e-12)
							if single.DM != nil {
								if row := CheckVolumePreserving(single.DM, obj, 1e-9); row >= 0 {
									t.Fatalf("%s: retained estimate loses volume at row %d", tag, row)
								}
							}
							if cfg.opts.FallbackDM == nil && !override {
								discard, err := plain.Align(obj)
								if err != nil {
									t.Fatal(err)
								}
								if !bitEqual(single.Target, discard.Target) {
									t.Fatalf("%s: target depends on KeepDM", tag)
								}
							}
						}
					}
				}
			}
		})
	}
}

// forceParallelKernels runs the sparse kernels and the redistribution
// kernel's reference products on the given number of workers whatever
// the problem size, restoring the defaults when the test ends.
func forceParallelKernels(t *testing.T, workers int) {
	sparse.SetParallelThreshold(0)
	sparse.SetKernelWorkers(workers)
	t.Cleanup(func() {
		sparse.SetParallelThreshold(sparse.DefaultParallelThreshold)
		sparse.SetKernelWorkers(0)
	})
}

// TestEngineAlignContextCancelled checks the single-call cancellation
// points: a cancelled context yields ctx.Err() and no result.
func TestEngineAlignContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := engineProblem(rng, 20, 6, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.AlignContext(ctx, p.Objective)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled AlignContext returned a result")
	}
	// And the uncancelled call matches plain Align bit for bit.
	got, err := e.AlignContext(context.Background(), p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Align(p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "uncancelled context", got, want, 0)
}

// TestEngineAlignAllContextCancelled checks the batch cancellation
// contract: a cancelled context returns ctx.Err() partial-free, both
// when cancelled up front and when cancelled mid-flight.
func TestEngineAlignAllContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := engineProblem(rng, 200, 20, 4)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 6*redistChunk)
	for a := range objectives {
		obj := make([]float64, 200)
		for i := range obj {
			obj[i] = rng.Float64() * 10
		}
		objectives[a] = obj
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := e.AlignAllContext(ctx, objectives, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled AlignAllContext returned results")
	}

	// Mid-flight: cancel concurrently. The call must either complete
	// fully or report the cancellation with no results at all.
	for trial := 0; trial < 20; trial++ {
		delay := time.Duration(rng.Intn(300)) * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		results, err := e.AlignAllContext(ctx, objectives, 2)
		switch err {
		case nil:
			for a, r := range results {
				if r == nil {
					t.Fatalf("trial %d: completed batch missing result %d", trial, a)
				}
			}
		case context.Canceled:
			if results != nil {
				t.Fatalf("trial %d: cancelled batch returned results", trial)
			}
		default:
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		cancel()
	}
}

// TestEngineAlignAllFastPathErrors mirrors TestEngineAlignAllError on
// the fused path with a tail chunk: invalid objectives are reported in
// input order while valid ones still align.
func TestEngineAlignAllFastPathErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := engineProblem(rng, 30, 8, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, redistChunk+3)
	for a := range objectives {
		objectives[a] = p.Objective
	}
	objectives[2] = make([]float64, 5) // wrong length
	objectives[redistChunk+1] = nil    // empty

	results, err := e.AlignAll(objectives, 2)
	if err == nil {
		t.Fatal("invalid objectives accepted")
	}
	if want := "objective 2"; !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
	want, err2 := e.Align(p.Objective)
	if err2 != nil {
		t.Fatal(err2)
	}
	for a, r := range results {
		if a == 2 || a == redistChunk+1 {
			if r != nil {
				t.Errorf("invalid objective %d produced a result", a)
			}
			continue
		}
		if r == nil {
			t.Fatalf("valid objective %d not aligned", a)
		}
		resultsClose(t, fmt.Sprintf("objective %d", a), r, want, 0)
	}
}
