package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"geoalign"
	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/shapefile"
	"geoalign/internal/sparse"
)

// scanAccount accumulates, for one traced build, the time spent inside
// the shapefile Scanner (OpenScanner and every Next) and the records it
// yielded.
type scanAccount struct {
	dur     time.Duration
	records int
}

// scanStream is the harness's partition.TileStream adapter over
// shapefile.Scanner, as `geoalign crosswalk build` uses it. acct is nil
// on untraced builds, which then pay no clock reads per record.
type scanStream struct {
	base string
	acct *scanAccount
}

func (s scanStream) Scan(fn func(parts geom.MultiPolygon) error) error {
	return scanLayer(s.base, s.acct, func(rec shapefile.MultiRecord) error { return fn(rec.Parts) })
}

func scanLayer(base string, acct *scanAccount, fn func(rec shapefile.MultiRecord) error) error {
	var t0 time.Time
	if acct != nil {
		t0 = time.Now()
	}
	sc, closer, err := shapefile.OpenScanner(base)
	if acct != nil {
		acct.dur += time.Since(t0)
	}
	if err != nil {
		return err
	}
	defer closer()
	for {
		if acct != nil {
			t0 = time.Now()
		}
		more := sc.Next()
		if acct != nil {
			acct.dur += time.Since(t0)
		}
		if !more {
			return sc.Err()
		}
		if acct != nil {
			acct.records++
		}
		if err := fn(sc.Record()); err != nil {
			return err
		}
	}
}

// collectKeys reads a layer's NAME attribute per record, the unit keys
// the snapshot carries.
func collectKeys(base string, acct *scanAccount) ([]string, error) {
	var keys []string
	err := scanLayer(base, acct, func(rec shapefile.MultiRecord) error {
		keys = append(keys, strings.TrimSpace(rec.Attrs["NAME"]))
		return nil
	})
	return keys, err
}

// buildOut is what one build leaves for its off-clock check.
type buildOut struct {
	al    *geoalign.Aligner
	meta  *geoalign.SnapshotMeta
	stats partition.TiledStats
	bytes int64
	scan  scanAccount   // traced builds only
	join  time.Duration // TiledMeasureDM wall time minus its scan time
}

// buildOnce runs one offline crosswalk build: Scanner → TiledMeasureDM
// → NewAligner + PrecomputeSolverCaches → WriteSnapshot → OpenSnapshot.
// It returns the build's wall time; the caller closes out.al.
func buildOnce(e *env, in *layerInputs, ot *tracer, op int64) (time.Duration, *buildOut, error) {
	out := &buildOut{}
	var acct *scanAccount
	if ot != nil {
		acct = &out.scan
	}
	snap := filepath.Join(e.dir, "build.snap")
	root := ot.begin("build", op, -1)
	t0 := time.Now()

	var dm *sparse.CSR
	joinWall, err := ot.timed("partition.join", op, root, func() error {
		var err error
		dm, out.stats, err = partition.TiledMeasureDM(scanStream{in.srcBase, acct}, scanStream{in.tgtBase, acct},
			partition.TiledOptions{TileCols: buildTiles, TileRows: buildTiles, MemBudget: buildMemBudget,
				Workers: e.nproc, SpillDir: e.dir})
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	out.join = joinWall - out.scan.dur
	out.meta = &geoalign.SnapshotMeta{}
	if _, err := ot.timed("shapefile.keys", op, root, func() error {
		var err error
		if out.meta.SourceKeys, err = collectKeys(in.srcBase, acct); err != nil {
			return err
		}
		out.meta.TargetKeys, err = collectKeys(in.tgtBase, acct)
		return err
	}); err != nil {
		return 0, nil, err
	}
	var built *geoalign.Aligner
	if _, err := ot.timed("core.engine_build", op, root, func() error {
		xw, err := publicCrosswalk(dm)
		if err != nil {
			return err
		}
		built, err = geoalign.NewAligner([]geoalign.Reference{{Name: "IntersectionArea", Crosswalk: xw}}, e.alignerOptions())
		if err == nil {
			built.PrecomputeSolverCaches()
		}
		return err
	}); err != nil {
		return 0, nil, err
	}
	if _, err := ot.timed("snapshot.write", op, root, func() error {
		return built.WriteSnapshot(snap, out.meta)
	}); err != nil {
		return 0, nil, err
	}
	if _, err := ot.timed("snapshot.open", op, root, func() error {
		var err error
		out.al, _, err = geoalign.OpenSnapshot(snap, e.alignerOptions())
		return err
	}); err != nil {
		return 0, nil, err
	}
	lat := time.Since(t0)
	ot.end(root)
	st, err := os.Stat(snap)
	if err != nil {
		out.al.Close()
		return 0, nil, err
	}
	out.bytes = st.Size()
	return lat, out, nil
}

// checkBuild is the off-clock output check of one build: the mapped
// snapshot has one unit per layer record and keeps a seeded objective's
// total to 1e-6 relative — the two layers partition the same rectangle,
// so the areal crosswalk conserves mass. Traced builds also time the
// direct core calls on the same objective.
func checkBuild(in *layerInputs, out *buildOut, seed, op int64, ot *tracer, res *result, solve, align *[]float64) {
	al := out.al
	if al.SourceUnits() != in.srcRecords || al.TargetUnits() != in.tgtRecords {
		res.mismatch("build %d: snapshot is %dx%d units, layers have %dx%d records", op, al.SourceUnits(), al.TargetUnits(), in.srcRecords, in.tgtRecords)
		return
	}
	if len(out.meta.SourceKeys) != in.srcRecords || len(out.meta.TargetKeys) != in.tgtRecords {
		res.mismatch("build %d: %d/%d keys for %d/%d records", op, len(out.meta.SourceKeys), len(out.meta.TargetKeys), in.srcRecords, in.tgtRecords)
	}
	rng := rand.New(rand.NewSource(seed*7919 + op))
	obj := make([]float64, in.srcRecords)
	var want float64
	for i := range obj {
		obj[i] = 1 + 100*rng.Float64()
		want += obj[i]
	}
	r, err := al.Align(obj)
	if err != nil {
		res.mismatch("build %d: align: %v", op, err)
		return
	}
	var got float64
	for _, v := range r.Target {
		got += v
	}
	if math.Abs(got-want) > 1e-6*want {
		res.mismatch("build %d: aligned total %v, objective total %v", op, got, want)
	}
	if ot != nil {
		d, _ := ot.timed("core.solve", op, -1, func() error { _, err := al.Weights(obj); return err })
		*solve = append(*solve, ms(d))
		d, _ = ot.timed("core.align", op, -1, func() error { _, err := al.AlignAll([][]float64{obj}); return err })
		*align = append(*align, ms(d))
	}
}

func runBuild(e *env) (*result, error) {
	in, err := genLayers(e.seed, e.dir)
	if err != nil {
		return nil, err
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	res := newResult()
	res.note("build: %d-unit source x %d-unit target TIGER-like layers, %dx%d tiles, %d KiB bucket budget, %d workers",
		in.srcRecords, in.tgtRecords, buildTiles, buildTiles, buildMemBudget>>10, e.nproc)

	// Set-up is warm-up: the first builds fault in code, files and heap.
	var warm []float64
	for i := 0; i < buildWarmups; i++ {
		lat, out, err := buildOnce(e, in, nil, int64(-1-i))
		if err != nil {
			return nil, err
		}
		out.al.Close()
		warm = append(warm, lat.Seconds())
	}
	res.e2e["setup_s"] = median(warm)
	runtime.GC()

	var ss []sample
	var scanMS, joinMS, records, pairs, spilled, peak, snapBytes, solve, align []float64
	w := startGoWindow()
	start := time.Now()
	for op := int64(0); time.Since(start) < e.window || op < minClosedOps; op++ {
		ot := e.tr.forOp(op)
		lat, out, err := buildOnce(e, in, ot, op)
		if err != nil {
			return nil, err
		}
		ss = append(ss, sample{lat: lat, ok: true, traced: ot != nil})
		checkBuild(in, out, e.seed, op, ot, res, &solve, &align)
		out.al.Close()
		if ot != nil {
			scanMS = append(scanMS, ms(out.scan.dur))
			joinMS = append(joinMS, ms(out.join))
			records = append(records, float64(out.scan.records))
		}
		pairs = append(pairs, float64(out.stats.PairsEvaluated))
		spilled = append(spilled, float64(out.stats.SpilledBytes))
		peak = append(peak, float64(out.stats.PeakBucketBytes))
		snapBytes = append(snapBytes, float64(out.bytes))
		if out.stats.SpilledBytes == 0 {
			res.mismatch("build %d: the bucket budget forced no spill", op)
		}
	}
	if err := finishGo(res, w, len(ss)); err != nil {
		return nil, err
	}
	p50, p90, err := latencyStats("build", ss)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = len(ss), 0
	res.e2e["p50_ms"], res.e2e["p90_ms"] = p50, p90
	res.e2e["throughput_per_s"] = blockRate(ss, float64(in.srcRecords))
	res.note("%d builds in the window", len(ss))
	if e.tr != nil {
		sum := e.tr.summary()
		l := res.layers
		l["shapefile.scan_ms"] = mean(scanMS)
		l["shapefile.records"] = mean(records)
		l["partition.join_ms"] = mean(joinMS)
		l["partition.pairs_evaluated"] = mean(pairs)
		l["partition.spilled_bytes"] = mean(spilled)
		l["partition.peak_bucket_bytes"] = mean(peak)
		l["core.engine_build_ms"] = sum.meanMS("core.engine_build")
		l["snapshot.write_ms"] = sum.meanMS("snapshot.write")
		l["snapshot.bytes"] = mean(snapBytes)
		l["snapshot.open_ms"] = sum.meanMS("snapshot.open")
		l["core.solve_ms"] = mean(solve)
		l["core.align_ms"] = mean(align)
		l["trace.overhead_ms"] = traceOverheadMS(ss)
		zeroServing(l)
	}
	return res, nil
}

// zeroServing fills the serving counters of a workload that starts no
// server: nothing was batched, shed, cached, routed or written.
func zeroServing(l map[string]float64) {
	for _, n := range []string{"serve.batch_size_mean", "serve.shed", "serve.cache_hit_ratio", "serve.cache_purged",
		"serve.singleflight_merged", "serve.deltas_applied", "router.retries", "router.replica_share_max"} {
		l[n] = 0
	}
}
