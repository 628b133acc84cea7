package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"geoalign"
	"geoalign/internal/serve"
)

const contentTypeBinary = "application/octet-stream"

// freshStack is the align-fresh program: one serve.Server on loopback
// over the mapped US engine, and the generator's client.
type freshStack struct {
	al     *geoalign.Aligner
	srv    *serve.Server
	http   *httpServer
	client *http.Client
	url    string
}

func (s *freshStack) stop() {
	closeClient(s.client)
	s.http.stop()
	s.srv.Shutdown()
	s.al.Close()
}

// startFresh boots the engine, starts the server and warms it up with
// requests whose answers are discarded.
func startFresh(e *env, in *engineInputs, gen *objectiveGen, op int64) (*freshStack, error) {
	al, err := bootEngine(e, in, filepath.Join(e.dir, "us.snap"), op)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Register("us", al); err != nil {
		al.Close()
		return nil, err
	}
	srv := serve.NewServer(reg, serve.Config{ResultCacheBytes: resultCacheBytes})
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		srv.Shutdown()
		al.Close()
		return nil, err
	}
	s := &freshStack{al: al, srv: srv, http: hs, client: newClient(e.nproc), url: hs.url + "/v1/align?engine=us"}
	obj := make([]float64, usSources)
	for i := 0; i < freshWarmups; i++ {
		gen.fill(obj, warmupID(op, i))
		if _, err := post(s.client, s.url, contentTypeBinary, appendFloats(nil, obj)); err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// warmupID keeps warm-up objectives apart from the measured ones.
func warmupID(op int64, i int) int64 { return 1<<40 + (-op)<<20 + int64(i) }

// bodyPool recycles request bodies: a US objective is 242 KB, and the
// generator's own garbage would otherwise show in the go.* metrics.
var bodyPool sync.Pool

// freshTraffic sends n fresh-objective requests (ids first..first+n-1)
// at rate and records each reply.
func freshTraffic(e *env, s *freshStack, gen *objectiveGen, first int64, n int, rate float64, replies []reply) []sample {
	obj := make([]float64, usSources)
	prep := func(i int) any {
		gen.fill(obj, first+int64(i))
		b, _ := bodyPool.Get().([]byte)
		return appendFloats(b[:0], obj)
	}
	send := func(i int, p any) bool {
		body := p.([]byte)
		r, err := post(s.client, s.url, contentTypeBinary, body)
		bodyPool.Put(body) //nolint:staticcheck // a slice header is fine here
		replies[i] = r
		return err == nil
	}
	return openLoop(n, every(rate), e.nproc, e.tr, prep, send)
}

func runFresh(e *env) (*result, error) {
	in, err := genEngineInputs(e.seed, e.dir)
	if err != nil {
		return nil, err
	}
	gen := newObjectiveGen(e.seed, in.totals)
	if err := quiesce(); err != nil {
		return nil, err
	}
	res := newResult()

	var setups []float64
	var s *freshStack
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		if s, err = startFresh(e, in, gen, int64(-1-i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.stop()
	res.e2e["setup_s"] = median(setups)
	runtime.GC()

	n := int(freshRate * e.window.Seconds())
	replies := make([]reply, n)
	before := readServe(s.srv.Metrics())
	w := startGoWindow()
	ss := freshTraffic(e, s, gen, 0, n, freshRate, replies)
	if err := finishGo(res, w, n); err != nil {
		return nil, err
	}
	served := readServe(s.srv.Metrics()).minus(before)
	p50, p90, err := latencyStats("align-fresh", ss)
	if err != nil {
		return nil, err
	}
	lag := lagP90MS(ss)
	if lag > maxLagShare*p50 {
		return nil, fmt.Errorf("invalid run: generator lag p90 %.3f ms exceeds %.0f%% of p50 %.3f ms", lag, 100*maxLagShare, p50)
	}
	res.attempted, res.failed = n, failures(ss)
	res.e2e["p50_ms"], res.e2e["p90_ms"] = p50, p90
	res.e2e["throughput_per_s"] = float64(n-res.failed) / windowSeconds(ss, every(freshRate))
	res.note("align-fresh: %d requests at %.0f/s, p90 limit %.0f ms, lag p90 %.3f ms", n, freshRate, freshLimitMS, lag)

	// The ok_rate_per_s ladder: the nominal window is its first step.
	type step struct {
		first   int64
		replies []reply
	}
	var steps []step
	okRate := 0.0
	if failures(ss) == 0 && p90 <= freshLimitMS && lag <= freshLimitMS/2 {
		okRate = freshRate
		next := int64(n)
		for _, rate := range freshLadder {
			m := max(ladderMinReqs, int(rate))
			st := step{first: next, replies: make([]reply, m)}
			steps = append(steps, st)
			next += int64(m)
			ls := freshTraffic(e, s, gen, st.first, m, rate, st.replies)
			_, lp90, _ := latencyStats("ladder", ls)
			res.note("ladder %4.0f/s: %d requests, p90 %.3f ms, lag p90 %.3f ms, %d failed", rate, m, lp90, lagP90MS(ls), failures(ls))
			if failures(ls) > 0 || lp90 > freshLimitMS || lagP90MS(ls) > freshLimitMS/2 {
				break
			}
			okRate = rate
		}
	}
	res.e2e["ok_rate_per_s"] = okRate

	// Output check, off the clock: every answer is bit-identical to
	// in-process Aligner.Align on the same objective.
	check := func(first int64, rs []reply) {
		for i, r := range rs {
			if r.status != http.StatusOK {
				continue // already counted as failed
			}
			got, err := s.al.Align(gen.objective(first + int64(i)))
			if err != nil {
				res.mismatch("request %d: in-process align: %v", first+int64(i), err)
				continue
			}
			if digest(binaryResult(got)) != r.digest {
				res.mismatch("request %d: served answer differs from Aligner.Align", first+int64(i))
			}
		}
	}
	check(0, replies)
	for _, st := range steps {
		check(st.first, st.replies)
	}

	if e.tr != nil {
		l := res.layers
		setupLayers(e, l)
		served.layers(l)
		l["loadgen.lag_p90_ms"] = lag
		l["trace.overhead_ms"] = traceOverheadMS(ss)
		solve, align := directCore(e, s.al, gen, 0, 50, 1)
		l["core.solve_ms"], l["core.align_ms"] = solve, align
		l["router.retries"], l["router.replica_share_max"] = 0, 0
	}
	return res, nil
}

// windowSeconds is the length of an open-loop window: from the first
// due time to the last completion.
func windowSeconds(ss []sample, at func(i int) time.Duration) float64 {
	var end time.Duration
	for i, s := range ss {
		if t := at(i) + s.lat; t > end {
			end = t
		}
	}
	return end.Seconds()
}

// setupLayers fills the per-layer metrics measured during set-up: the
// engine build, snapshot write and open of the served engine, and the
// metrics of layers the workload does not call.
func setupLayers(e *env, l map[string]float64) {
	sum := e.tr.summary()
	l["core.engine_build_ms"] = sum.meanMS("core.engine_build")
	l["snapshot.write_ms"] = sum.meanMS("snapshot.write")
	l["snapshot.open_ms"] = sum.meanMS("snapshot.open")
	if st, err := os.Stat(filepath.Join(e.dir, "us.snap")); err == nil {
		l["snapshot.bytes"] = float64(st.Size())
	}
	for _, n := range []string{"shapefile.records", "partition.pairs_evaluated", "partition.spilled_bytes", "partition.peak_bucket_bytes"} {
		l[n] = 0
	}
}

// directCore times the core layer directly on objectives
// first..first+n-1: Aligner.Weights alone, and AlignAll at the given
// width (the served width is 1). It returns mean milliseconds per call.
func directCore(e *env, al *geoalign.Aligner, gen *objectiveGen, first int64, n, width int) (solve, align float64) {
	var sv, av []float64
	for i := 0; i < n; i += width {
		objs := make([][]float64, width)
		for j := range objs {
			objs[j] = gen.objective(first + int64(i+j))
		}
		op := first + int64(i)
		d, _ := e.tr.timed("core.solve", op, -1, func() error { _, err := al.Weights(objs[0]); return err })
		sv = append(sv, ms(d))
		d, _ = e.tr.timed("core.align", op, -1, func() error { _, err := al.AlignAll(objs); return err })
		av = append(av, ms(d))
	}
	return mean(sv), mean(av)
}
