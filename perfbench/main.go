// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the workload through the public
// functions of the layers, checks every output off the clock, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// ledger — ending with one JSON line. README.md lists every metric.
//
//	perfbench --workload align-fresh --seed 1 --seconds 25 --trace 0
//	perfbench --workload build --seed 1 --repeat 5
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"geoalign"
)

// env is what a workload run gets: the seed, the window length, the
// pinned worker count, a scratch directory and the tracer (nil when
// untraced).
type env struct {
	seed   int64
	window time.Duration
	nproc  int
	dir    string
	tr     *tracer
}

func (e *env) alignerOptions() *geoalign.AlignerOptions {
	return &geoalign.AlignerOptions{Workers: e.nproc, DiscardCrosswalks: true}
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end metrics this workload reports
	layers            map[string]float64 // per-layer ledger (traced runs)
	mismatches        []string           // failed output checks
	notes             []string           // sample counts and parameters, printed as comments
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

func (r *result) mismatch(format string, a ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, a...))
	} else if len(r.mismatches) == 20 {
		r.mismatches = append(r.mismatches, "further mismatches not shown")
	}
}

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

var workloads = map[string]func(e *env) (*result, error){
	"build":       runBuild,
	"align-fresh": runFresh,
	"align-batch": runBatch,
	"mixed-rw":    runMixed,
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the nine end-to-end metrics in print order. The JSON
// line of an untraced run carries the ones every workload reports
// (jsonEndToEnd); the rest are printed on the lines above it.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"throughput_per_s", "1/s"},
	{"ok_rate_per_s", "1/s"}, {"write_p50_ms", "ms"}, {"write_p90_ms", "ms"},
	{"failed_ratio", "1"}, {"rss_peak_mib", "MiB"},
}

var jsonEndToEnd = []string{"setup_s", "p50_ms", "p90_ms", "throughput_per_s", "rss_peak_mib"}

// perLayer is the per-layer ledger in print order. inJSON marks the
// metrics the JSON line of a traced run carries: every workload has a
// value for them (a count may be 0 where its layer is idle). Timings of
// layers a workload never calls are printed as n/a instead.
var perLayer = []struct {
	metricDef
	inJSON bool
}{
	{metricDef{"shapefile.scan_ms", "ms"}, false},
	{metricDef{"shapefile.records", "count"}, true},
	{metricDef{"partition.join_ms", "ms"}, false},
	{metricDef{"partition.pairs_evaluated", "count"}, true},
	{metricDef{"partition.spilled_bytes", "bytes"}, true},
	{metricDef{"partition.peak_bucket_bytes", "bytes"}, true},
	{metricDef{"core.engine_build_ms", "ms"}, true},
	{metricDef{"snapshot.write_ms", "ms"}, true},
	{metricDef{"snapshot.bytes", "bytes"}, true},
	{metricDef{"snapshot.open_ms", "ms"}, true},
	{metricDef{"serve.parse_ms", "ms"}, false},
	{metricDef{"serve.queue_ms", "ms"}, false},
	{metricDef{"serve.solve_ms", "ms"}, false},
	{metricDef{"serve.encode_ms", "ms"}, false},
	{metricDef{"serve.batch_size_mean", "count"}, true},
	{metricDef{"serve.shed", "count"}, true},
	{metricDef{"serve.cache_hit_ratio", "ratio"}, true},
	{metricDef{"serve.cache_purged", "count"}, true},
	{metricDef{"serve.singleflight_merged", "count"}, true},
	{metricDef{"serve.deltas_applied", "count"}, true},
	{metricDef{"core.solve_ms", "ms"}, true},
	{metricDef{"core.align_ms", "ms"}, true},
	{metricDef{"core.apply_delta_ms", "ms"}, false},
	{metricDef{"router.retries", "count"}, true},
	{metricDef{"router.replica_share_max", "ratio"}, true},
	{metricDef{"loadgen.lag_p90_ms", "ms"}, false},
	{metricDef{"go.gc_cpu_fraction", "ratio"}, true},
	{metricDef{"go.alloc_mib_per_op", "MiB"}, true},
	{metricDef{"trace.overhead_ms", "ms"}, true},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "build, align-fresh, align-batch or mixed-rw")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 25, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 traces the run and prints the per-layer ledger")
	repeat := fs.Int("repeat", 0, "run the workload N times, seeds seed..seed+N-1, and print each metric's median and quartiles")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload build|align-fresh|align-batch|mixed-rw, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *name, *seed, *seconds, *trace, *workdir, stdout, stderr)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, nproc: nproc, dir: dir}
	if *trace == 1 {
		e.tr = &tracer{base: time.Now()}
	}
	res, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
		res.note("spans written to %s", path)
		printSpans(stdout, e.tr.summary())
	}
	return report(stdout, stderr, *name, *seed, e, res)
}

// report prints the human-readable lines and the final JSON line, and
// turns failed output checks into a non-zero exit.
func report(stdout, stderr io.Writer, name string, seed int64, e *env, res *result) int {
	fmt.Fprintf(stdout, "# workload %s seed %d window %s GOMAXPROCS %d workers %d\n", name, seed, e.window, runtime.GOMAXPROCS(0), e.nproc)
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	res.e2e["failed_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	for _, m := range endToEnd {
		if v, ok := res.e2e[m.name]; ok {
			fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	out := make(map[string]map[string]any)
	if e.tr == nil {
		for _, n := range jsonEndToEnd {
			out[n] = map[string]any{"value": res.e2e[n], "unit": unitOf(n)}
		}
	} else {
		for _, m := range perLayer {
			v, measured := res.layers[m.name]
			if m.inJSON && !measured {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", name, m.name)
				return 1
			}
			if measured {
				fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, v, m.unit)
			} else {
				fmt.Fprintf(stdout, "%-28s %14s %s (layer idle on %s)\n", m.name, "n/a", m.unit, name)
			}
			if m.inJSON {
				out[m.name] = map[string]any{"value": v, "unit": m.unit}
			}
		}
	}
	for _, m := range res.mismatches {
		fmt.Fprintln(stderr, "perfbench: output check failed:", m)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.mismatches) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.mismatches) > 0 {
		return 1
	}
	return 0
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func printSpans(w io.Writer, sum spanSummary) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := sum[n]
		fmt.Fprintf(w, "# span %-22s count %6d total %10.3f ms self %10.3f ms\n", n, st.count, ms(st.total), ms(st.self))
	}
}

// finishGo fills the go.* metrics and rss_peak_mib at the end of a run.
func finishGo(res *result, w goWindow, ops int) error {
	gc, alloc := w.done(ops)
	res.layers["go.gc_cpu_fraction"] = gc
	res.layers["go.alloc_mib_per_op"] = alloc
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.e2e["rss_peak_mib"] = rss
	return nil
}

// quiesce runs after input generation: it returns the generator's
// garbage to the OS and resets the resident-set high-water mark, so
// rss_peak_mib covers set-up and the timed window only.
func quiesce() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// repeatRuns runs the workload n times as child processes, one seed
// each, and prints every metric's median, quartiles and spread — the
// distance between the quartiles as a share of the median, computed as
// statistics.quantiles(values, n=4) does.
func repeatRuns(n int, name string, seed int64, seconds, trace int, workdir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--workdir", workdir)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var parsed struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &parsed); err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: parsing result: %v\n", s, err)
			return 1
		}
		for k, m := range parsed.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stdout, "# seed %d done in %.1f s:", s, time.Since(t0).Seconds())
		for _, k := range jsonEndToEnd {
			if m, ok := parsed.Metrics[k]; ok {
				fmt.Fprintf(stdout, " %s=%.6g", k, m.Value)
			}
		}
		fmt.Fprintln(stdout)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d\n", name, n, seed, seed+int64(n)-1)
	fmt.Fprintf(stdout, "%-28s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := math.NaN()
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(stdout, "%-28s %12.6g %12.6g %12.6g %8.4f %s\n", k, q1, q2, q3, spread, units[k])
	}
	return 0
}
