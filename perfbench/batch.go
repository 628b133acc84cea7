package main

import (
	"path/filepath"
	"runtime"
	"time"

	"geoalign"
)

// batchObjectives fills objs with the batch of operation op.
func batchObjectives(gen *objectiveGen, objs [][]float64, op int64) {
	for j := range objs {
		gen.fill(objs[j], op*batchWidth+int64(j))
	}
}

// startBatch boots the engine and warms AlignAll up.
func startBatch(e *env, in *engineInputs, gen *objectiveGen, objs [][]float64, op int64) (*geoalign.Aligner, error) {
	al, err := bootEngine(e, in, filepath.Join(e.dir, "us.snap"), op)
	if err != nil {
		return nil, err
	}
	for i := 0; i < batchWarmups; i++ {
		batchObjectives(gen, objs, warmupID(op, i))
		if _, err := al.AlignAll(objs); err != nil {
			al.Close()
			return nil, err
		}
	}
	return al, nil
}

func runBatch(e *env) (*result, error) {
	in, err := genEngineInputs(e.seed, e.dir)
	if err != nil {
		return nil, err
	}
	gen := newObjectiveGen(e.seed, in.totals)
	objs := make([][]float64, batchWidth)
	for j := range objs {
		objs[j] = make([]float64, usSources)
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	res := newResult()

	var setups []float64
	var al *geoalign.Aligner
	for i := 0; i < setupRepeats; i++ {
		if al != nil {
			al.Close()
		}
		t0 := time.Now()
		if al, err = startBatch(e, in, gen, objs, int64(-1-i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer al.Close()
	res.e2e["setup_s"] = median(setups)
	runtime.GC()

	// Closed loop, one caller. Objective generation sits between
	// operations, off the clock. Each operation keeps the digest of one
	// answer, rotating through the batch positions, for the check.
	var ss []sample
	type keptAnswer struct {
		op     int64
		digest uint64
	}
	var kept []keptAnswer
	w := startGoWindow()
	start := time.Now()
	for op := int64(0); time.Since(start) < e.window || op < minClosedOps; op++ {
		batchObjectives(gen, objs, op)
		ot := e.tr.forOp(op)
		var results []*geoalign.Result
		lat, err := ot.timed("core.align_all", op, -1, func() error {
			var err error
			results, err = al.AlignAll(objs)
			return err
		})
		ss = append(ss, sample{lat: lat, ok: err == nil, traced: ot != nil})
		if err != nil {
			res.mismatch("batch %d: %v", op, err)
			continue
		}
		kept = append(kept, keptAnswer{op, digest(binaryResult(results[op%batchWidth]))})
	}
	if err := finishGo(res, w, len(ss)); err != nil {
		return nil, err
	}
	p50, p90, err := latencyStats("align-batch", ss)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = len(ss), failures(ss)
	res.e2e["p50_ms"], res.e2e["p90_ms"] = p50, p90
	res.e2e["throughput_per_s"] = blockRate(ss, batchWidth)
	res.note("align-batch: %d AlignAll calls of %d objectives", len(ss), batchWidth)

	// Output check, off the clock: the kept answer of every batch is
	// bit-identical to in-process Aligner.Align on the same objective.
	for _, k := range kept {
		got, err := al.Align(gen.objective(k.op*batchWidth + k.op%batchWidth))
		if err != nil {
			res.mismatch("batch %d: in-process align: %v", k.op, err)
		} else if digest(binaryResult(got)) != k.digest {
			res.mismatch("batch %d: AlignAll answer %d differs from Aligner.Align", k.op, k.op%batchWidth)
		}
	}

	if e.tr != nil {
		l := res.layers
		setupLayers(e, l)
		zeroServing(l)
		l["trace.overhead_ms"] = traceOverheadMS(ss)
		l["core.solve_ms"], l["core.align_ms"] = directCore(e, al, gen, 0, 4*batchWidth, batchWidth)
	}
	return res, nil
}
