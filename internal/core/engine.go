package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"geoalign/internal/linalg"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// Engine is a reusable GeoAlign aligner for crosswalking many
// attributes over one fixed set of references — the §4.3 / Figure 8
// workload. Construction precomputes everything that does not depend
// on the objective attribute:
//
//   - validated shapes (every reference |U^s|×|U^t|),
//   - the Eq. 15 design matrix of max-normalised reference source
//     aggregates, together with its normal-equations form (the k×k
//     Gram matrix AᵀA and ‖A‖∞), so each per-attribute solve only
//     computes c = Aᵀb in O(ns·k) and then works in k-dimensional
//     space,
//   - each reference crosswalk's row sums and their maximum (the
//     per-reference normaliser of the Eq. 14 numerator),
//   - the union sparsity pattern of the reference crosswalks plus a
//     per-reference map from stored entries into that pattern, so a
//     retained estimate (KeepDM) is materialised into a flat value
//     buffer with no sorting or merging per call,
//   - the zero-row mask of source units with no stored entry in any
//     reference (the Eq. 14 degenerate case for every objective).
//
// After construction an Engine is immutable and safe for concurrent
// use: Align may be called from many goroutines, and AlignAll fans a
// batch of objectives across a worker pool. Per-call state lives in
// pooled scratch buffers; no two concurrent calls share mutable data.
type Engine struct {
	ns, nt int
	refs   []Reference
	opts   Options

	weightMat *linalg.Matrix     // Eq. 15 design matrix (ns × k)
	gram      *linalg.GramSystem // its cached normal equations
	normSrc   [][]float64        // its columns: maxNormalise(source_k); nil until first use on snapshot- or delta-derived engines
	nsOnce    sync.Once          // guards the lazy normSrc extraction
	nsReady   atomic.Bool        // normSrc published; the only safe gate for readers outside nsOnce
	rowSums   [][]float64        // row sums per reference crosswalk (the Eq. 14 denominator basis)
	maxRow    []float64          // max |row sum| per reference crosswalk
	pat       *sparse.CSR        // union sparsity pattern (Val is nil)
	slots     [][]int            // slots[k][t]: union position of ref k's t-th entry
	zeroRow   []bool             // no reference has support in this source unit

	// snap owns the mapped snapshot file for snapshot-loaded engines
	// (nil for freshly built ones): the hot arrays above alias the
	// mapping, so it must stay mapped until Close.
	snap *snapshot.File

	fbOnce sync.Once
	fbSums []float64 // cached FallbackDM.RowSums(), computed on first degenerate patch

	scratch sync.Pool // *engineScratch, one per in-flight Align or AlignAll worker
}

// engineScratch is the per-worker mutable state of the weight-learning
// step and of the redistribution kernel (batch.go). A chunk of width B
// uses the kernel buffers at stride B, lane-minor ([row*B+t],
// [col*B+t]), so the fused inner loops touch consecutive memory.
type engineScratch struct {
	b     []float64 // max-normalised objective
	w     []float64 // B × k scaled weights, attribute-major
	scale []float64 // ns × B per-row disaggregation factors
	y     []float64 // par × nt × B transpose-product accumulators
}

// lanes returns the kernel buffers resliced for a chunk of width B
// whose reference products run par at a time, growing them the first
// time a chunk that wide runs on this scratch.
func (s *engineScratch) lanes(e *Engine, B, par int) (w, scale, y []float64) {
	k := len(e.refs)
	if len(s.w) < k*B {
		s.w = make([]float64, k*B)
		s.scale = make([]float64, e.ns*B)
	}
	if len(s.y) < par*e.nt*B {
		s.y = make([]float64, par*e.nt*B)
	}
	return s.w[:k*B], s.scale[:e.ns*B], s.y[:par*e.nt*B]
}

// kernelWorkers is how many reference products the redistribution
// kernel may run at once, following the sparse package's parallel
// threshold over the references' total stored entries.
func (e *Engine) kernelWorkers() int {
	nnz := 0
	for _, r := range e.refs {
		nnz += r.DM.NNZ()
	}
	return sparse.KernelWorkerCount(nnz)
}

// NewEngine validates the references and precomputes the shared
// crosswalk structure. The references' matrices are captured by
// reference and must not be mutated while the engine is in use.
func NewEngine(refs []Reference, opts Options) (*Engine, error) {
	if len(refs) == 0 {
		return nil, ErrNoReferences
	}
	for k, r := range refs {
		if r.DM == nil {
			return nil, fmt.Errorf("core: reference %d (%s) has no disaggregation matrix", k, r.Name)
		}
	}
	ns, nt := refs[0].DM.Rows, refs[0].DM.Cols
	for k, r := range refs {
		if r.DM.Rows != ns || r.DM.Cols != nt {
			return nil, fmt.Errorf("core: reference %d (%s) DM is %dx%d, reference 0 is %dx%d",
				k, r.Name, r.DM.Rows, r.DM.Cols, ns, nt)
		}
		if r.Source != nil && len(r.Source) != ns {
			return nil, fmt.Errorf("core: reference %d (%s) source vector length %d, want %d",
				k, r.Name, len(r.Source), ns)
		}
	}
	e := &Engine{
		ns:   ns,
		nt:   nt,
		refs: append([]Reference(nil), refs...),
		opts: opts,
	}

	// Eq. 15 design matrix and Eq. 14 normalisers.
	k := len(refs)
	e.normSrc = make([][]float64, k)
	e.rowSums = make([][]float64, k)
	e.maxRow = make([]float64, k)
	for i, r := range refs {
		e.normSrc[i] = maxNormalise(referenceSource(r))
		e.rowSums[i] = r.DM.RowSums()
		e.maxRow[i] = linalg.MaxAbs(e.rowSums[i])
	}
	var err error
	e.weightMat, err = linalg.MatrixFromColumns(e.normSrc)
	if err != nil {
		return nil, err
	}
	e.nsReady.Store(true)
	e.gram = linalg.NewGramSystem(e.weightMat)

	e.buildPattern()
	e.initPools()
	return e, nil
}

// initPools installs the scratch-buffer pool factory; called once the
// dimensions are final (from NewEngine, the snapshot loader and
// ApplyDelta).
func (e *Engine) initPools() {
	e.scratch.New = func() any { return &engineScratch{b: make([]float64, e.ns)} }
}

// Close releases the mapped snapshot backing a snapshot-loaded engine.
// After Close the engine must not be used: its precompute arrays alias
// the mapping. Closing a freshly built engine is a no-op. Close is
// idempotent.
func (e *Engine) Close() error {
	if e.snap == nil {
		return nil
	}
	return e.snap.Close()
}

// FromSnapshot reports whether the engine was loaded from a snapshot.
func (e *Engine) FromSnapshot() bool { return e.snap != nil }

// MappedBytes returns the size of the snapshot backing this engine
// (0 for freshly built engines).
func (e *Engine) MappedBytes() int64 {
	if e.snap == nil {
		return 0
	}
	return e.snap.Size()
}

// PrecomputeBytes estimates the resident size of the engine's
// attribute-independent precompute: crosswalks, design matrix, Gram
// system, union pattern, slot maps and normalisers. For snapshot-loaded
// engines most of it aliases the mapping and is shared page cache
// rather than private heap.
func (e *Engine) PrecomputeBytes() int64 {
	const wordSize = 8
	var n int64
	// The lazy normSrc extraction may race with this accounting (the
	// registry polls PrecomputeBytes while traffic runs); nsReady is the
	// publication gate — e.normSrc itself must not be read without it.
	nsReady := e.nsReady.Load()
	for i, r := range e.refs {
		n += int64(len(r.DM.IndPtr)+len(r.DM.ColIdx)+len(e.slots[i])) * wordSize
		n += int64(len(r.DM.Val)+len(r.Source)+len(e.rowSums[i])) * wordSize
		if nsReady {
			n += int64(len(e.normSrc[i])) * wordSize
		}
	}
	n += int64(len(e.pat.IndPtr)+len(e.pat.ColIdx)) * wordSize
	n += int64(len(e.weightMat.Data)+len(e.gram.Gram().Data)+len(e.maxRow)) * wordSize
	if chol, _ := e.gram.CachedCholesky(); chol != nil {
		n += int64(len(chol.Data)) * wordSize
	}
	n += int64(len(e.zeroRow))
	return n
}

// normSrcCols returns the max-normalised reference source columns,
// extracting them from the design matrix on first use. Snapshot-loaded
// and delta-derived engines skip the extraction at construction time —
// only the source-override path reads these, and the design matrix
// columns hold the exact same bits — which keeps the mmap cold-start
// free of the copy. The nsReady store publishes the slice to readers
// outside the Once (PrecomputeBytes, polled concurrently by the serving
// registry).
func (e *Engine) normSrcCols() [][]float64 {
	e.nsOnce.Do(func() {
		if e.normSrc != nil {
			e.nsReady.Store(true)
			return
		}
		k := len(e.refs)
		cols := make([][]float64, k)
		data := e.weightMat.Data
		for i := 0; i < k; i++ {
			col := make([]float64, e.ns)
			for row := 0; row < e.ns; row++ {
				col[row] = data[row*k+i]
			}
			cols[i] = col
		}
		e.normSrc = cols
		e.nsReady.Store(true)
	})
	return e.normSrc
}

// buildPattern merges the references' sparsity patterns row by row into
// one union CSR pattern and records, for every stored entry of every
// reference, its position in that pattern.
func (e *Engine) buildPattern() {
	k := len(e.refs)
	indptr := make([]int, e.ns+1)
	seen := make([]bool, e.nt)
	posOf := make([]int, e.nt)
	touched := make([]int, 0, 16)
	var colIdx []int
	e.slots = make([][]int, k)
	for kk, r := range e.refs {
		e.slots[kk] = make([]int, r.DM.NNZ())
	}
	e.zeroRow = make([]bool, e.ns)
	for i := 0; i < e.ns; i++ {
		indptr[i] = len(colIdx)
		touched = touched[:0]
		for _, r := range e.refs {
			cols, _ := r.DM.Row(i)
			for _, c := range cols {
				if !seen[c] {
					seen[c] = true
					touched = append(touched, c)
				}
			}
		}
		insertionSortInts(touched)
		base := len(colIdx)
		for idx, c := range touched {
			posOf[c] = base + idx
			colIdx = append(colIdx, c)
			seen[c] = false
		}
		for kk, r := range e.refs {
			start := r.DM.IndPtr[i]
			cols, _ := r.DM.Row(i)
			for t, c := range cols {
				e.slots[kk][start+t] = posOf[c]
			}
		}
		e.zeroRow[i] = len(colIdx) == base && base == indptr[i]
	}
	indptr[e.ns] = len(colIdx)
	e.pat = &sparse.CSR{Rows: e.ns, Cols: e.nt, IndPtr: indptr, ColIdx: colIdx}
}

// insertionSortInts sorts a small slice in place; union rows hold only
// the handful of target units a source unit overlaps.
func insertionSortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// SourceUnits returns |U^s|.
func (e *Engine) SourceUnits() int { return e.ns }

// TargetUnits returns |U^t|.
func (e *Engine) TargetUnits() int { return e.nt }

// References returns the number of references.
func (e *Engine) References() int { return len(e.refs) }

// ZeroSupportRows reports the precomputed Eq. 14 degenerate mask:
// true for source units in which every reference is zero. The returned
// slice is shared and must not be mutated.
func (e *Engine) ZeroSupportRows() []bool { return e.zeroRow }

// LearnWeights runs only the weight-learning step (Eq. 15) against the
// precomputed design matrix.
func (e *Engine) LearnWeights(objective []float64) ([]float64, error) {
	if err := e.checkObjective(objective); err != nil {
		return nil, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	return e.learnWeights(objective, nil, s, nil)
}

// LearnWeightsResidual is LearnWeights plus the relative residual
// ‖Aβ − b̂‖₂/‖b̂‖₂ of the weight-learning least-squares system in
// normalised space (b̂ = maxNormalise(objective)). The residual comes
// from the cached Gram system via the identity
// r² = b̂ᵀb̂ − 2βᵀc + βᵀGβ with c = Aᵀb̂, so it costs one O(ns·k)
// reduction and a k×k quadratic form — no extra design-matrix pass.
// The alignment catalog uses it as the reference-fit half of its
// accuracy estimate: a small residual means the engine's references
// explain the objective's source-level distribution well.
func (e *Engine) LearnWeightsResidual(objective []float64) ([]float64, float64, error) {
	if err := e.checkObjective(objective); err != nil {
		return nil, 0, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	w, err := e.learnWeights(objective, nil, s, nil)
	if err != nil {
		return nil, 0, err
	}
	// learnWeights leaves b̂ in s.b.
	var bb float64
	for _, v := range s.b {
		bb += v * v
	}
	if bb == 0 {
		return w, 0, nil
	}
	k := len(e.refs)
	c := make([]float64, k)
	e.gram.ApplyTInto(c, s.b)
	g := e.gram.Gram()
	r2 := bb
	for i := 0; i < k; i++ {
		r2 -= 2 * w[i] * c[i]
		for j := 0; j < k; j++ {
			r2 += w[i] * g.At(i, j) * w[j]
		}
	}
	if r2 < 0 {
		r2 = 0 // cancellation noise near a perfect fit
	}
	return w, math.Sqrt(r2) / math.Sqrt(bb), nil
}

// PatternNNZ reports the nonzero count of the references' union
// sparsity pattern — the crosswalk density numerator the alignment
// catalog records per engine edge.
func (e *Engine) PatternNNZ() int { return len(e.pat.ColIdx) }

// Align crosswalks one objective attribute. Safe for concurrent use.
func (e *Engine) Align(objective []float64) (*Result, error) {
	return e.AlignWithSources(objective, nil)
}

// AlignContext is Align with cancellation: the context is checked on
// entry and again between the weight-learning and redistribution
// stages. On cancellation it returns ctx.Err() and no result.
func (e *Engine) AlignContext(ctx context.Context, objective []float64) (*Result, error) {
	return e.alignWithSourcesContext(ctx, objective, nil)
}

// AlignWithSources is Align with per-call reference source vectors
// overriding the precomputed ones in the weight-learning step (Eq. 15
// only; redistribution always follows the crosswalks, so estimates
// remain volume-preserving). sources may be nil (use precomputed), or
// length len(refs) with nil entries falling back per reference. This
// serves the §4.4.1 robustness protocol, which perturbs published
// source aggregates while the crosswalk files stay exact.
func (e *Engine) AlignWithSources(objective []float64, sources [][]float64) (*Result, error) {
	return e.alignWithSourcesContext(context.Background(), objective, sources)
}

func (e *Engine) alignWithSourcesContext(ctx context.Context, objective []float64, sources [][]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.checkObjective(objective); err != nil {
		return nil, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	beta, err := e.learnWeights(objective, sources, s, nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var res [1]*Result
	var errs [1]error
	e.redistributeBatch([][]float64{objective}, []int{0}, [][]float64{beta}, res[:], errs[:], e.kernelWorkers(), s)
	return res[0], errs[0]
}

// scaledWeights fills w with the Eq. 14 numerator weights: β_k
// normalised by the reference's largest source aggregate.
func (e *Engine) scaledWeights(w, beta []float64) {
	for k, bk := range beta {
		w[k] = bk
		if mx := e.maxRow[k]; mx > 0 {
			w[k] = bk / mx
		}
	}
}

// fallbackSums returns the cached row sums of the fallback crosswalk,
// computing them once on first use. Before the cache, every degenerate
// patch re-summed the whole fallback matrix per aligned attribute —
// O(nnz) allocation and work that batch workloads hit once per
// objective.
func (e *Engine) fallbackSums() []float64 {
	e.fbOnce.Do(func() {
		if e.opts.FallbackDM != nil {
			e.fbSums = e.opts.FallbackDM.RowSums()
		}
	})
	return e.fbSums
}

// AlignAll crosswalks a batch of objectives, fanning the per-attribute
// solves across a pool of workers (0 ⇒ runtime.NumCPU()). The batch
// shares the engine's normal-equations precomputation: all c = Aᵀb
// columns are computed up front as one blocked, parallel AᵀB product
// (bit-identical per column to the single-call path), each worker
// warm-starts its active-set solves from the previous objective's β,
// and attributes redistribute in fused chunks that read every
// reference crosswalk row once per chunk instead of once per
// attribute (see batch.go). Results are written to disjoint slots, so
// the output order matches the input order and is independent of
// scheduling. On error the first failure in input order is returned
// alongside the results computed so far.
func (e *Engine) AlignAll(objectives [][]float64, workers int) ([]*Result, error) {
	return e.AlignAllContext(context.Background(), objectives, workers)
}

func (e *Engine) checkObjective(objective []float64) error {
	if len(objective) == 0 {
		return ErrNoSourceUnits
	}
	if len(objective) != e.ns {
		return fmt.Errorf("core: objective has %d source units, references have %d", len(objective), e.ns)
	}
	return nil
}

// learnWeights runs Eq. 15 using the cached normal equations of the
// precomputed design matrix, or a per-call system when source overrides
// are given. The objective is max-normalised into the scratch buffer,
// and warm (optional) seeds the active-set solver from a previous β.
func (e *Engine) learnWeights(objective []float64, sources [][]float64, s *engineScratch, warm []float64) ([]float64, error) {
	gs := e.gram
	if sources != nil {
		if len(sources) != len(e.refs) {
			return nil, fmt.Errorf("core: %d source overrides for %d references", len(sources), len(e.refs))
		}
		normSrc := e.normSrcCols()
		cols := make([][]float64, len(e.refs))
		for k := range e.refs {
			if sources[k] == nil {
				cols[k] = normSrc[k]
				continue
			}
			if len(sources[k]) != e.ns {
				return nil, fmt.Errorf("core: source override %d has length %d, want %d", k, len(sources[k]), e.ns)
			}
			cols[k] = maxNormalise(sources[k])
		}
		mat, err := linalg.MatrixFromColumns(cols)
		if err != nil {
			return nil, err
		}
		// Source overrides change the design matrix, so the cached Gram
		// system does not apply; a single-use one keeps the solve in
		// k-space and bit-identical to an engine with those sources
		// baked in.
		gs = linalg.NewGramSystem(mat)
	}
	maxNormaliseInto(s.b, objective)
	return gs.SimplexLS(s.b, warm)
}
