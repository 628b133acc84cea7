package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"geoalign"
	"geoalign/internal/cluster"
	"geoalign/internal/serve"
)

// replicaNode is one in-process geoalignd replica.
type replicaNode struct {
	srv  *serve.Server
	http *httpServer
}

// ack is one acknowledged delta: which replica applied it to which
// engine, and the generation it published.
type ack struct {
	replica, engine, gen, write int
}

// mixedStack is the mixed-rw program: a router over two replicas, each
// hosting mixedEngines names mapped from one snapshot.
type mixedStack struct {
	replicas []*replicaNode
	byURL    map[string]int
	router   *cluster.Router
	rhttp    *httpServer
	client   *http.Client
	names    []string
	initGen  [][]int // [replica][engine] generation before any delta
	writes   []plannedWrite
	acked    []ack
}

func (s *mixedStack) stop() {
	closeClient(s.client)
	if s.rhttp != nil {
		s.rhttp.stop()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, r := range s.replicas {
		r.http.stop()
		r.srv.Shutdown()
		for _, n := range s.names {
			r.srv.Registry().Remove(n)
		}
	}
}

// mixedInputs are the generated requests: the read pool bodies per
// engine, the read plan and the planned writes.
type mixedInputs struct {
	pool   [][][]byte // [engine][j] binary objective bodies
	reads  [][2]int   // (engine, pool index) per read
	writes []plannedWrite
}

// Pool objective ids sit apart from every other objective id.
func poolID(engine, j int) int64 { return 1<<42 + int64(engine*mixedPool+j) }

// mixedWarmWrites is how many writes each set-up sends before the
// window, so the window's deltas do not pay first-use costs.
const mixedWarmWrites = 4

func genMixed(e *env, in *engineInputs, gen *objectiveGen) (*mixedInputs, error) {
	mi := &mixedInputs{pool: make([][][]byte, mixedEngines)}
	for eng := range mi.pool {
		for j := 0; j < mixedPool; j++ {
			mi.pool[eng] = append(mi.pool[eng], appendFloats(nil, gen.objective(poolID(eng, j))))
		}
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x72656164))
	zipf := rand.NewZipf(rng, mixedZipfS, 1, mixedPool-1)
	nReads := int(mixedReadRate * e.window.Seconds())
	mi.reads = make([][2]int, nReads)
	for i := range mi.reads {
		mi.reads[i] = [2]int{rng.Intn(mixedEngines), int(zipf.Uint64())}
	}
	nWrites := int(mixedWriteRate*e.window.Seconds()) + setupRepeats*mixedWarmWrites
	var err error
	mi.writes, err = genWrites(e.seed, in, mixedEngines, nWrites)
	return mi, err
}

// pickNames chooses engine names the ring spreads evenly, so each
// replica owns mixedEngines/mixedReplicas of them whatever loopback
// ports the replicas got.
func pickNames(ring *cluster.Ring) ([]string, error) {
	count := make(map[string]int)
	var names []string
	for i := 0; i < 10000 && len(names) < mixedEngines; i++ {
		name := fmt.Sprintf("us%03d", i)
		owner, ok := ring.Owner(name)
		if !ok {
			return nil, fmt.Errorf("ring has no owner for %q", name)
		}
		if count[owner] < mixedEngines/mixedReplicas {
			count[owner]++
			names = append(names, name)
		}
	}
	if len(names) < mixedEngines {
		return nil, fmt.Errorf("could not spread %d engines over the ring", mixedEngines)
	}
	return names, nil
}

func startMixed(e *env, in *engineInputs, mi *mixedInputs, warmFirst int, op int64) (*mixedStack, error) {
	snap := filepath.Join(e.dir, "us.snap")
	booted, err := bootEngine(e, in, snap, op)
	if err != nil {
		return nil, err
	}
	booted.Close()
	s := &mixedStack{byURL: make(map[string]int), client: newClient(e.nproc), writes: mi.writes}
	var urls []string
	for r := 0; r < mixedReplicas; r++ {
		srv := serve.NewServer(serve.NewRegistry(), serve.Config{ResultCacheBytes: resultCacheBytes})
		hs, err := startHTTP(srv.Handler())
		if err != nil {
			srv.Shutdown()
			s.stop()
			return nil, err
		}
		s.replicas = append(s.replicas, &replicaNode{srv: srv, http: hs})
		s.byURL[hs.url] = r
		urls = append(urls, hs.url)
	}
	if s.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: urls}); err != nil {
		s.stop()
		return nil, err
	}
	s.router.Start()
	if s.rhttp, err = startHTTP(s.router.Handler()); err != nil {
		s.stop()
		return nil, err
	}
	if s.names, err = pickNames(s.router.Ring()); err != nil {
		s.stop()
		return nil, err
	}
	// Every replica maps every engine name from the one snapshot, as
	// geoalignd -snapshot-dir boots.
	s.initGen = make([][]int, mixedReplicas)
	for r, rep := range s.replicas {
		for _, name := range s.names {
			var al *geoalign.Aligner
			if _, err := e.tr.timed("snapshot.open", op, -1, func() error {
				var err error
				al, _, err = geoalign.OpenSnapshot(snap, e.alignerOptions())
				return err
			}); err != nil {
				s.stop()
				return nil, err
			}
			if err := rep.srv.Registry().RegisterOwned(name, al, 0); err != nil {
				al.Close()
				s.stop()
				return nil, err
			}
			s.initGen[r] = append(s.initGen[r], rep.srv.Registry().Generation(name))
		}
	}
	// Warm-up: every pool objective once through the router, and a few
	// writes (acknowledged like any other, so the check replays them).
	for eng := range mi.pool {
		for _, body := range mi.pool[eng] {
			if _, err := post(s.client, s.readURL(eng), contentTypeBinary, body); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up read: %w", err)
			}
		}
	}
	for i := warmFirst; i < warmFirst+mixedWarmWrites; i++ {
		a, err := s.send(i)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up write: %w", err)
		}
		s.acked = append(s.acked, a)
	}
	return s, nil
}

func (s *mixedStack) readURL(eng int) string {
	return s.rhttp.url + "/v1/align?engine=" + s.names[eng]
}

// send posts planned write i through the router and returns its
// acknowledgement.
func (s *mixedStack) send(i int) (ack, error) {
	w := s.writes[i]
	resp, err := s.client.Post(s.rhttp.url+"/v1/engines/"+s.names[w.engine]+"/delta", "application/json", bytes.NewReader(w.body))
	if err != nil {
		return ack{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Generation int `json:"generation"`
	}
	if resp.StatusCode != http.StatusOK {
		return ack{}, fmt.Errorf("delta %d: status %d", i, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ack{}, fmt.Errorf("delta %d: %w", i, err)
	}
	r, ok := s.byURL[resp.Header.Get(cluster.ShardHeader)]
	if !ok {
		return ack{}, fmt.Errorf("delta %d: unknown shard %q", i, resp.Header.Get(cluster.ShardHeader))
	}
	return ack{replica: r, engine: w.engine, gen: body.Generation, write: i}, nil
}

// routerRetries reads the router's retry counter from its /metrics.
func (s *mixedStack) routerRetries() (float64, error) {
	resp, err := s.client.Get(s.rhttp.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Retries float64 `json:"retries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m.Retries, err
}

func (s *mixedStack) serveCounters() serveCounters {
	var c serveCounters
	for i, r := range s.replicas {
		if i == 0 {
			c = readServe(r.srv.Metrics())
		} else {
			c = c.plus(readServe(r.srv.Metrics()))
		}
	}
	return c
}

// event is one request of the merged read/write schedule.
type event struct {
	at    time.Duration
	write bool
	idx   int
}

func runMixed(e *env) (*result, error) {
	in, err := genEngineInputs(e.seed, e.dir)
	if err != nil {
		return nil, err
	}
	gen := newObjectiveGen(e.seed, in.totals)
	mi, err := genMixed(e, in, gen)
	if err != nil {
		return nil, err
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	res := newResult()

	var setups []float64
	var s *mixedStack
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		if s, err = startMixed(e, in, mi, i*mixedWarmWrites, int64(-1-i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.stop()
	res.e2e["setup_s"] = median(setups)
	firstWrite := setupRepeats * mixedWarmWrites
	writes := mi.writes[firstWrite:]
	runtime.GC()

	var events []event
	for i := range mi.reads {
		events = append(events, event{at: every(mixedReadRate)(i), idx: i})
	}
	for i := range writes {
		events = append(events, event{at: every(mixedWriteRate)(i), write: true, idx: i})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	readReplies := make([]reply, len(mi.reads))
	writeAcks := make([]ack, len(writes))
	writeOK := make([]bool, len(writes))
	retriesBefore, err := s.routerRetries()
	if err != nil {
		return nil, err
	}
	before := s.serveCounters()
	w := startGoWindow()
	at := func(i int) time.Duration { return events[i].at }
	all := openLoop(len(events), at, e.nproc, e.tr,
		nil,
		func(i int, _ any) bool {
			ev := events[i]
			if ev.write {
				a, err := s.send(firstWrite + ev.idx)
				writeAcks[ev.idx], writeOK[ev.idx] = a, err == nil
				return err == nil
			}
			rd := mi.reads[ev.idx]
			r, err := post(s.client, s.readURL(rd[0]), contentTypeBinary, mi.pool[rd[0]][rd[1]])
			readReplies[ev.idx] = r
			return err == nil
		})
	if err := finishGo(res, w, len(events)); err != nil {
		return nil, err
	}
	served := s.serveCounters().minus(before)
	retriesAfter, err := s.routerRetries()
	if err != nil {
		return nil, err
	}
	for i, ok := range writeOK {
		if ok {
			s.acked = append(s.acked, writeAcks[i])
		}
	}

	var reads, wrs []sample
	for i, ev := range events {
		if ev.write {
			wrs = append(wrs, all[i])
		} else {
			reads = append(reads, all[i])
		}
	}
	p50, p90, err := latencyStats("mixed-rw reads", reads)
	if err != nil {
		return nil, err
	}
	wp50, wp90, err := latencyStats("mixed-rw writes", wrs)
	if err != nil {
		return nil, err
	}
	lag := lagP90MS(all)
	if lag > maxLagShare*p50 {
		return nil, fmt.Errorf("invalid run: generator lag p90 %.3f ms exceeds %.0f%% of read p50 %.3f ms", lag, 100*maxLagShare, p50)
	}
	res.attempted, res.failed = len(all), failures(all)
	res.e2e["p50_ms"], res.e2e["p90_ms"] = p50, p90
	res.e2e["write_p50_ms"], res.e2e["write_p90_ms"] = wp50, wp90
	res.e2e["throughput_per_s"] = float64(len(all)-res.failed) / windowSeconds(all, at)
	res.note("mixed-rw: %d reads at %.1f/s (Zipf s=%.1f over %d objectives x %d engines), %d writes at %.1f/s, %d replicas, lag p90 %.3f ms",
		len(reads), mixedReadRate, mixedZipfS, mixedPool, mixedEngines, len(wrs), mixedWriteRate, mixedReplicas, lag)

	checkMixed(e, s, gen, served, res)

	if e.tr != nil {
		l := res.layers
		setupLayers(e, l)
		served.layers(l)
		l["router.retries"] = retriesAfter - retriesBefore
		shares := make(map[string]int)
		for _, r := range readReplies {
			shares[r.shard]++
		}
		for _, n := range shares {
			if sh := float64(n) / float64(len(readReplies)); sh > l["router.replica_share_max"] {
				l["router.replica_share_max"] = sh
			}
		}
		l["loadgen.lag_p90_ms"] = lag
		l["trace.overhead_ms"] = traceOverheadMS(reads)
	}
	return res, nil
}

// checkMixed is mixed-rw's off-clock output check. Every delta must
// have been applied exactly once, and after writes stop one read per
// (replica, engine), sent straight to the replica, must be
// bit-identical to an in-process engine that replayed, in generation
// order, the deltas that replica acknowledged for that engine. Traced
// runs time the replay's ApplyDelta calls and the core calls on the
// replayed engines.
func checkMixed(e *env, s *mixedStack, gen *objectiveGen, served serveCounters, res *result) {
	var applied int64
	for _, r := range s.replicas {
		applied += r.srv.Metrics().DeltasApplied()
	}
	if applied != int64(len(s.acked)) {
		res.mismatch("replicas applied %d deltas, %d were acknowledged", applied, len(s.acked))
	}
	base, _, err := geoalign.OpenSnapshot(filepath.Join(e.dir, "us.snap"), e.alignerOptions())
	if err != nil {
		res.mismatch("opening the snapshot for replay: %v", err)
		return
	}
	defer base.Close()
	var applyMS, solveMS, alignMS []float64
	for r, rep := range s.replicas {
		for eng, name := range s.names {
			var mine []ack
			for _, a := range s.acked {
				if a.replica == r && a.engine == eng {
					mine = append(mine, a)
				}
			}
			sort.Slice(mine, func(i, j int) bool { return mine[i].gen < mine[j].gen })
			cur := base
			for k, a := range mine {
				if a.gen != s.initGen[r][eng]+k+1 {
					res.mismatch("replica %d engine %s: acknowledged generations are not consecutive", r, name)
					break
				}
				d, err := e.tr.timed("core.apply_delta", int64(a.write), -1, func() error {
					next, err := cur.ApplyDelta(s.writes[a.write].delta)
					if err == nil {
						cur = next
					}
					return err
				})
				if err != nil {
					res.mismatch("replica %d engine %s: replaying delta %d: %v", r, name, a.write, err)
					break
				}
				applyMS = append(applyMS, ms(d))
			}
			if g := rep.srv.Registry().Generation(name); g != s.initGen[r][eng]+len(mine) {
				res.mismatch("replica %d engine %s: generation %d after %d acknowledged deltas from %d", r, name, g, len(mine), s.initGen[r][eng])
			}
			for _, id := range []int64{poolID(eng, 0), 1<<43 + int64(r*mixedEngines+eng)} {
				obj := gen.objective(id)
				got, err := post(s.client, rep.http.url+"/v1/align?engine="+name, contentTypeBinary, appendFloats(nil, obj))
				if err != nil {
					res.mismatch("replica %d engine %s: final read: %v", r, name, err)
					continue
				}
				want, err := cur.Align(obj)
				if err != nil {
					res.mismatch("replica %d engine %s: replayed align: %v", r, name, err)
					continue
				}
				if digest(binaryResult(want)) != got.digest {
					res.mismatch("replica %d engine %s: answer differs from the replayed engine", r, name)
				}
				if e.tr != nil {
					d, _ := e.tr.timed("core.solve", id, -1, func() error { _, err := cur.Weights(obj); return err })
					solveMS = append(solveMS, ms(d))
					d, _ = e.tr.timed("core.align", id, -1, func() error { _, err := cur.AlignAll([][]float64{obj}); return err })
					alignMS = append(alignMS, ms(d))
				}
			}
		}
	}
	if e.tr != nil {
		res.layers["core.apply_delta_ms"] = mean(applyMS)
		res.layers["core.solve_ms"] = mean(solveMS)
		res.layers["core.align_ms"] = mean(alignMS)
	}
}
