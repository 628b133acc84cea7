package main

// Workload parameters. README.md records them with the reason each
// workload exists; every run prints the ones it uses.

// The US-scale engine of align-fresh, align-batch and mixed-rw: the
// paper's §4.3 problem, 30238 ZCTA-like source units, 3142 county-like
// target units, 7 references.
const (
	usSources = 30238
	usTargets = 3142
	usRefs    = 7
)

// setupRepeats is how many times a run stands its program up; setup_s
// is the median.
const setupRepeats = 3

// build: a 1/10-scale TIGER-like pair (the paper's 10:1 source:target
// ratio), joined on a fixed tile grid under a bucket budget that forces
// a spill, so a run holds a few hundred builds.
const (
	buildSources   = 3000
	buildTargets   = 300
	buildTiles     = 8
	buildMemBudget = 512 << 10
	buildWarmups   = 5
)

// minClosedOps is the fewest operations a closed-loop window holds: it
// runs past --seconds until it has them, so its p90 has ten samples
// beyond it.
const minClosedOps = 120

// align-fresh: an open loop of single-attribute binary requests, each a
// fresh objective, at a nominal rate well below capacity; then the
// ladder of higher rates for ok_rate_per_s.
const (
	freshRate     = 30.0 // requests per second in the timed window
	freshLimitMS  = 50.0 // p90 latency limit
	freshWarmups  = 20
	ladderMinReqs = 100 // requests per ladder step
)

// freshLadder are the ascending rates of the ok_rate_per_s sweep after
// the nominal window (which is its first step).
var freshLadder = []float64{45, 70, 100}

// align-batch: one caller, AlignAll over batchWidth fresh objectives.
const (
	batchWidth   = 32
	batchWarmups = 3
)

// mixed-rw: reads and delta writes through a router over two replicas,
// each hosting mixedEngines names mapped from one snapshot.
const (
	mixedReplicas    = 2
	mixedEngines     = 4
	mixedPool        = 3   // objectives per engine the reads draw from
	mixedZipfS       = 1.2 // Zipf exponent of the read draw
	mixedReadRate    = 70.0
	mixedWriteRate   = 5.5
	writeValueShare  = 0.7 // value-only row patches
	writeSourceShare = 0.2 // source revisions; the rest are structural
)

// resultCacheBytes is the servers' result-cache budget.
const resultCacheBytes = 64 << 20

// maxLagShare invalidates an open-loop run whose generator lag p90
// exceeds this share of the p50 latency: the generator, not the
// program, would be what was measured.
const maxLagShare = 1.0
