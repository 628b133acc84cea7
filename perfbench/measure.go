package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// failedLatency stands in for the latency of a failed or refused
// operation: it sorts above every real sample, so a failure misses any
// latency limit a percentile is held to.
const failedLatency = math.MaxFloat64

// sample is one timed operation. For open-loop traffic lat runs from
// the scheduled send time and lag is how late the generator sent it;
// closed-loop operations have no schedule and a zero lag.
type sample struct {
	lat    time.Duration
	lag    time.Duration
	ok     bool
	traced bool
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latenciesMS returns the samples' latencies in milliseconds, with
// failures at failedLatency, sorted ascending.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
		if !s.ok {
			out[i] = failedLatency
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// blockOps is the size of the blocks p90 is taken over: the 90th
// percentile of 100 operations has exactly ten samples beyond it.
const blockOps = 100

// latencyStats returns the median, over consecutive blocks of blockOps
// operations in schedule order, of each block's median and of each
// block's 90th percentile. Block medians keep one slow stretch of a
// shared machine from deciding a run's figures; a window too short for
// one block is an error, not a number.
func latencyStats(what string, ss []sample) (p50, p90 float64, err error) {
	if len(ss) < blockOps {
		return 0, 0, fmt.Errorf("%s: %d samples, p90 needs at least %d", what, len(ss), blockOps)
	}
	var mids, tails []float64
	for b := 0; b+blockOps <= len(ss); b += blockOps {
		l := latenciesMS(ss[b : b+blockOps])
		mids = append(mids, percentile(l, 0.5))
		tails = append(tails, percentile(l, 0.9))
	}
	return median(mids), median(tails), nil
}

// blockRate is work per second of busy time for a closed loop, the
// median over the same blocks as latencyStats.
func blockRate(ss []sample, workPerOp float64) float64 {
	var rates []float64
	for b := 0; b+blockOps <= len(ss); b += blockOps {
		var busy time.Duration
		for _, s := range ss[b : b+blockOps] {
			busy += s.lat
		}
		rates = append(rates, workPerOp*blockOps/busy.Seconds())
	}
	return median(rates)
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// lagP90MS is the 90th percentile of the generator's send lag.
func lagP90MS(ss []sample) float64 {
	l := make([]float64, len(ss))
	for i, s := range ss {
		l[i] = ms(s.lag)
	}
	sort.Float64s(l)
	return percentile(l, 0.9)
}

// traceOverheadMS compares the median latency of traced and untraced
// operations of one window (a traced run traces every other operation).
func traceOverheadMS(ss []sample) float64 {
	var on, off []sample
	for _, s := range ss {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return percentile(latenciesMS(on), 0.5) - percentile(latenciesMS(off), 0.5)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so repeat mode reports the same spread the
// bounds in BENCHMARK.json were set from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// resetPeakRSS clears the kernel's resident-set high-water mark, so a
// later peakRSSMiB covers only what ran after this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// goWindow captures Go runtime counters at the start of a timed window;
// done turns them into the go.* per-layer metrics for that window.
type goWindow struct {
	alloc       uint64
	gcCPU, allC float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, all float64) {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startGoWindow() goWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, all := readCPU()
	return goWindow{alloc: m.TotalAlloc, gcCPU: gc, allC: all}
}

// done returns the share of the window's CPU time spent in the garbage
// collector and the MiB allocated per operation.
func (w goWindow) done(ops int) (gcFraction, allocMiBPerOp float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, all := readCPU()
	if d := all - w.allC; d > 0 {
		gcFraction = (gc - w.gcCPU) / d
	}
	if ops > 0 {
		allocMiBPerOp = float64(m.TotalAlloc-w.alloc) / float64(1<<20) / float64(ops)
	}
	return gcFraction, allocMiBPerOp
}

// span is one traced call into a layer, recorded by the benchmark's own
// code around the call. Parent indexes the enclosing span (-1 for a
// root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced case: every method is a no-op.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// forOp returns the tracer to use for operation op: a traced run traces
// every other operation, so traced and untraced operations of the same
// window give the tracing overhead.
func (t *tracer) forOp(op int64) *tracer {
	if t == nil || op%2 == 0 {
		return nil
	}
	return t
}

func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time, traced or not.
func (t *tracer) timed(name string, op int64, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, op, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// spanTotals is the per-name roll-up of the recorded spans.
type spanTotals struct {
	count       int
	total, self time.Duration
}

type spanSummary map[string]*spanTotals

// meanMS is the mean duration of the spans named name, 0 when none.
func (s spanSummary) meanMS(name string) float64 {
	st := s[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return ms(st.total) / float64(st.count)
}

// summary returns, per span name, the count, the summed duration and
// the summed self time: each span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) summary() spanSummary {
	out := make(spanSummary)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - covered(children[i]))
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
