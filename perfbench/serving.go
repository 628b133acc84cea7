package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"geoalign"
	"geoalign/internal/serve"
	"geoalign/internal/sparse"
	"geoalign/internal/table"
)

// bootEngine stands the US-scale engine up the way geoalignd's first
// boot with -snapshot-dir does: parse the reference crosswalk CSVs,
// union their keys, build and precompute the engine, persist it as a
// snapshot and serve the mapped copy. op tags the set-up spans.
func bootEngine(e *env, in *engineInputs, snapPath string, op int64) (*geoalign.Aligner, error) {
	var refs []geoalign.Reference
	var meta *geoalign.SnapshotMeta
	if _, err := e.tr.timed("table.read_csv", op, -1, func() error {
		var err error
		refs, meta, err = readReferences(in.csvPaths)
		return err
	}); err != nil {
		return nil, err
	}
	var built *geoalign.Aligner
	if _, err := e.tr.timed("core.engine_build", op, -1, func() error {
		var err error
		built, err = geoalign.NewAligner(refs, e.alignerOptions())
		if err == nil {
			built.PrecomputeSolverCaches()
		}
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := e.tr.timed("snapshot.write", op, -1, func() error {
		return built.WriteSnapshot(snapPath, meta)
	}); err != nil {
		return nil, err
	}
	var al *geoalign.Aligner
	_, err := e.tr.timed("snapshot.open", op, -1, func() error {
		var err error
		al, _, err = geoalign.OpenSnapshot(snapPath, e.alignerOptions())
		return err
	})
	return al, err
}

// readReferences is geoalignd's crosswalk loader: source and target
// keys are unioned in first-seen order and every crosswalk is reordered
// onto them.
func readReferences(paths []string) ([]geoalign.Reference, *geoalign.SnapshotMeta, error) {
	xwalks := make([]*table.Crosswalk, len(paths))
	for k, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, nil, err
		}
		xwalks[k], err = table.ReadCrosswalkCSV(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	union := func(keysOf func(*table.Crosswalk) []string) []string {
		seen := make(map[string]bool)
		var keys []string
		for _, cw := range xwalks {
			for _, key := range keysOf(cw) {
				if !seen[key] {
					seen[key] = true
					keys = append(keys, key)
				}
			}
		}
		return keys
	}
	srcKeys := union(func(cw *table.Crosswalk) []string { return cw.SourceKeys })
	tgtKeys := union(func(cw *table.Crosswalk) []string { return cw.TargetKeys })
	refs := make([]geoalign.Reference, len(xwalks))
	for k, cw := range xwalks {
		dm, err := cw.ReorderTo(srcKeys, tgtKeys)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", paths[k], err)
		}
		xw, err := publicCrosswalk(dm)
		if err != nil {
			return nil, nil, err
		}
		refs[k] = geoalign.Reference{Name: cw.Attribute, Crosswalk: xw}
	}
	return refs, &geoalign.SnapshotMeta{SourceKeys: srcKeys, TargetKeys: tgtKeys}, nil
}

func publicCrosswalk(dm *sparse.CSR) (*geoalign.Crosswalk, error) {
	xw := geoalign.NewCrosswalk(dm.Rows, dm.Cols)
	for i := 0; i < dm.Rows; i++ {
		cols, vals := dm.Row(i)
		for t, j := range cols {
			if err := xw.Add(i, j, vals[t]); err != nil {
				return nil, err
			}
		}
	}
	return xw, nil
}

// httpServer is one handler served on a loopback port.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop waits for in-flight requests, closes idle connections and
// returns once the serving goroutine has exited.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// newClient is the load generator's keep-alive client: one pooled
// connection per sender.
func newClient(senders int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// reply is what the harness keeps of one response: enough to count it
// and to check its body later without holding the bytes.
type reply struct {
	status int
	shard  string
	digest uint64
}

// post sends one request and digests the response body.
func post(c *http.Client, url, contentType string, body []byte) (reply, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, shard: resp.Header.Get("X-Geoalign-Shard"), digest: h.Sum64()}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("status %d from %s", r.status, url)
	}
	return r, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// serveCounters is a reading of the public serve.Metrics counters.
type serveCounters struct {
	shed, batches, batched, hits, misses, purged, merged, deltas int64
	stageCount                                                   map[string]float64
	stageMS                                                      map[string]float64
}

var stages = []string{"parse", "queue", "solve", "encode"}

func readServe(m *serve.Metrics) serveCounters {
	c := serveCounters{
		shed: m.Shed(), batches: m.Batches(), batched: m.BatchedRequests(),
		hits: m.CacheHits(), misses: m.CacheMisses(), purged: m.CachePurged(),
		merged: m.SingleflightMerged(), deltas: m.DeltasApplied(),
		stageCount: make(map[string]float64), stageMS: make(map[string]float64),
	}
	lat, _ := m.Snapshot()["latency"].(map[string]any)
	for _, st := range stages {
		s, _ := lat[st].(map[string]any)
		n, _ := s["count"].(int64)
		total, _ := s["total_ms"].(float64)
		c.stageCount[st] = float64(n)
		c.stageMS[st] = total
	}
	return c
}

// minus returns the counts accrued since b; plus sums two replicas.
func (c serveCounters) minus(b serveCounters) serveCounters { return c.combine(b, -1) }
func (c serveCounters) plus(b serveCounters) serveCounters  { return c.combine(b, 1) }

func (c serveCounters) combine(b serveCounters, sign int64) serveCounters {
	out := serveCounters{
		shed: c.shed + sign*b.shed, batches: c.batches + sign*b.batches, batched: c.batched + sign*b.batched,
		hits: c.hits + sign*b.hits, misses: c.misses + sign*b.misses, purged: c.purged + sign*b.purged,
		merged: c.merged + sign*b.merged, deltas: c.deltas + sign*b.deltas,
		stageCount: make(map[string]float64), stageMS: make(map[string]float64),
	}
	for _, st := range stages {
		out.stageCount[st] = c.stageCount[st] + float64(sign)*b.stageCount[st]
		out.stageMS[st] = c.stageMS[st] + float64(sign)*b.stageMS[st]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers writes the serve.* per-layer metrics of a window.
func (c serveCounters) layers(l map[string]float64) {
	for _, st := range stages {
		l["serve."+st+"_ms"] = ratio(c.stageMS[st], c.stageCount[st])
	}
	l["serve.batch_size_mean"] = ratio(float64(c.batched), float64(c.batches))
	l["serve.shed"] = float64(c.shed)
	l["serve.cache_hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	l["serve.cache_purged"] = float64(c.purged)
	l["serve.singleflight_merged"] = float64(c.merged)
	l["serve.deltas_applied"] = float64(c.deltas)
}
