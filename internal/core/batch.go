// The redistribution kernel and the batch alignment path.
// AlignAllContext processes objectives in chunks of up to redistChunk
// attributes so the dominant cost of alignment — streaming every
// reference crosswalk during the transpose-form redistribution — is
// paid once per chunk instead of once per attribute: each stored
// crosswalk entry is loaded once and multiplied against the whole
// chunk's row scales while it is in register. The kernel strides its
// buffers by the chunk's live width, so a chunk of one (Align, or a
// coalesced request that found no company) does one lane of work.
//
// Every chunk width gives bit-identical results per attribute. For
// every output element the additions happen in the same order: the
// denominator combines references in index order, each reference's
// transpose product accumulates rows in ascending order (the chunk
// dimension is independent — it widens the inner loop without
// reordering any one attribute's sums), and the per-reference products
// fold into the target in reference order.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// redistChunk is how many attributes one fused redistribution pass
// carries: every crosswalk entry loaded from memory feeds this many
// multiply-adds. Wide enough to amortise the streaming, narrow enough
// that the per-entry scale and accumulator blocks stay in L1.
const redistChunk = 16

// scaleBlockRows is the row-block size of the per-row scale pass: a
// block's scales for a full chunk (scaleBlockRows × redistChunk
// values) stay in L2 while every lane writes its column of them.
const scaleBlockRows = 512

// batchChunk bounds the normalised-objective buffers of batchGramPrep:
// objectives run through the AᵀB product this many columns at a time.
const batchChunk = 32

// AlignAllContext is AlignAll with cancellation. The context is checked
// between worker chunks (each chunk covers up to redistChunk
// attributes) and inside the shared AᵀB preparation; once it is
// cancelled no further chunk starts and the call returns ctx.Err()
// with no results, since a partially aligned batch is not meaningful.
func (e *Engine) AlignAllContext(ctx context.Context, objectives [][]float64, workers int) ([]*Result, error) {
	n := len(objectives)
	results := make([]*Result, n)
	if n == 0 {
		return results, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, n)
	valid := make([]int, 0, n)
	for i, obj := range objectives {
		if err := e.checkObjective(obj); err != nil {
			errs[i] = err
			continue
		}
		valid = append(valid, i)
	}

	// The shared AᵀB prep only pays off with a genuine mixture to
	// learn; k == 1 runs the plain per-objective solve.
	k := len(e.refs)
	useGram := k > 1
	var cs []float64
	var bnorms []float64
	if useGram {
		cs = make([]float64, n*k)
		bnorms = make([]float64, n)
		if err := e.batchGramPrep(ctx, objectives, valid, cs, bnorms); err != nil {
			return nil, err
		}
	}

	nChunks := (len(valid) + redistChunk - 1) / redistChunk
	if workers > nChunks {
		workers = nChunks
	}
	// Chunks run concurrently already; the kernel's reference products
	// take the parallelism left over (all of it for a lone chunk).
	par := max(1, e.kernelWorkers()/max(workers, 1))

	// processChunk solves the chunk's weights (warm-started down the
	// worker's chain) and redistributes the successfully solved
	// attributes in one fused pass. Returns the last successful β to
	// seed the next chunk.
	processChunk := func(ci int, warm []float64, s *engineScratch) []float64 {
		lo := ci * redistChunk
		hi := min(lo+redistChunk, len(valid))
		idxs := valid[lo:hi]
		betas := make([][]float64, len(idxs))
		for t, i := range idxs {
			var beta []float64
			var err error
			if useGram {
				beta, err = e.solvePrepared(cs[i*k:(i+1)*k], bnorms[i], warm)
			} else {
				beta, err = e.learnWeights(objectives[i], nil, s, warm)
			}
			if err != nil {
				errs[i] = err
				continue
			}
			betas[t] = beta
			warm = beta
		}
		e.redistributeBatch(objectives, idxs, betas, results, errs, par, s)
		return warm
	}

	if workers <= 1 {
		s := e.scratch.Get().(*engineScratch)
		var warm []float64
		for ci := 0; ci < nChunks; ci++ {
			if ctx.Err() != nil {
				break
			}
			warm = processChunk(ci, warm, s)
		}
		e.scratch.Put(s)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := e.scratch.Get().(*engineScratch)
				defer e.scratch.Put(s)
				var warm []float64
				for {
					if ctx.Err() != nil {
						return
					}
					ci := int(next.Add(1)) - 1
					if ci >= nChunks {
						return
					}
					warm = processChunk(ci, warm, s)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("core: objective %d: %w", i, err)
		}
	}
	return results, nil
}

// solvePrepared runs the weight-learning solve with the right-hand side
// pre-reduced as c = Aᵀb and ‖b‖₂; warm optionally seeds the active-set
// solver with the previous objective's β.
func (e *Engine) solvePrepared(c []float64, bnorm float64, warm []float64) ([]float64, error) {
	return linalg.SimplexLeastSquaresGramWarm(e.gram.G, c, e.gram.AInf, bnorm, warm)
}

// batchGramPrep fills cs (row i holding c_i = Aᵀ·maxNormalise(obj_i))
// and bnorms (‖maxNormalise(obj_i)‖₂) for every valid objective,
// reusing one chunk of column buffers throughout. The context is
// checked per column chunk.
func (e *Engine) batchGramPrep(ctx context.Context, objectives [][]float64, valid []int, cs, bnorms []float64) error {
	k := len(e.refs)
	cols := make([][]float64, 0, batchChunk)
	for start := 0; start < len(valid); start += batchChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + batchChunk
		if end > len(valid) {
			end = len(valid)
		}
		chunk := valid[start:end]
		for len(cols) < len(chunk) {
			cols = append(cols, make([]float64, e.ns))
		}
		for t, i := range chunk {
			maxNormaliseInto(cols[t], objectives[i])
			bnorms[i] = linalg.Norm2(cols[t])
		}
		prod := linalg.MulATB(e.weightMat, cols[:len(chunk)])
		for t, i := range chunk {
			for j := 0; j < k; j++ {
				cs[i*k+j] = prod.At(j, t)
			}
		}
	}
	return nil
}

// redistributeBatch runs the disaggregation and re-aggregation steps
// (Eq. 14/17) for every solved attribute of one chunk. It is the
// engine's only redistribution kernel: Align runs it on a chunk of one.
// Attributes whose solve failed (betas[t] == nil) are skipped; a
// fallback redistribution that fails is reported in errs. Up to par
// reference products run concurrently.
func (e *Engine) redistributeBatch(objectives [][]float64, idxs []int, betas [][]float64, results []*Result, errs []error, par int, s *engineScratch) {
	// Compact the chunk to the solved attributes. idxs is this chunk's
	// private sub-slice of the valid list, so the in-place filter is
	// safe under concurrent chunk workers.
	live := idxs[:0:len(idxs)]
	liveBetas := betas[:0]
	for t, i := range idxs {
		if betas[t] != nil {
			liveBetas = append(liveBetas, betas[t])
			live = append(live, i)
		}
	}
	B := len(live)
	if B == 0 {
		return
	}
	k := len(e.refs)
	// Reference products run par at a time, never more than there are
	// references.
	par = min(par, k)
	w, scales, y := s.lanes(e, B, par)
	for t, i := range live {
		e.scaledWeights(w[t*k:(t+1)*k], liveBetas[t])
		results[i] = &Result{Weights: liveBetas[t], Target: make([]float64, e.nt)}
	}

	// Per-row scales objective_i/den_i for the whole chunk at stride B.
	// The denominator den_i = Σ_k w_k·rowsum_k(i) combines the cached
	// reference row sums in reference order — the union-matrix row sum
	// without touching the matrices. Rows with zero support (den_i == 0;
	// the crosswalks are non-negative, so association cannot manufacture
	// or cancel a denominator) get scale 0: the degenerate Eq. 14 case,
	// whose mass is dropped unless a fallback crosswalk is configured, in
	// which case each lane records its degenerate rows for the patch.
	// Each lane accumulates its denominators over a block of rows in a
	// contiguous buffer, so the reference passes stream at any chunk
	// width, and then writes the block's scales at stride B.
	var degenerate [][]int
	if e.opts.FallbackDM != nil {
		degenerate = make([][]int, B)
	}
	var denBlock [scaleBlockRows]float64
	for lo := 0; lo < e.ns; lo += scaleBlockRows {
		hi := min(lo+scaleBlockRows, e.ns)
		for t, i := range live {
			den := denBlock[:hi-lo]
			clear(den)
			for kk, wk := range w[t*k : (t+1)*k] {
				if wk == 0 {
					continue
				}
				rs := e.rowSums[kk][lo:hi]
				den = den[:len(rs)] // same length; lets the compiler drop the bounds check
				for j, r := range rs {
					den[j] += wk * r
				}
			}
			for j, obj := range objectives[i][lo:hi] {
				sc := 0.0
				if d := den[j]; d != 0 {
					sc = obj / d
				} else if degenerate != nil && obj != 0 {
					degenerate[t] = append(degenerate[t], lo+j)
				}
				scales[(lo+j)*B+t] = sc
			}
		}
	}

	// With KeepDM each lane's estimate is materialised on a second
	// goroutine while the kernel runs. Both only read the weights and the
	// scales, so the overlap changes no result; a single Align then does
	// not pay for the kernel and the materialisation in turn.
	var dms []*sparse.CSR
	var materialized sync.WaitGroup
	if e.opts.KeepDM {
		dms = make([]*sparse.CSR, B)
		materialized.Add(1)
		go func() {
			defer materialized.Done()
			for t := range live {
				dms[t] = e.materializeDM(w[t*k:(t+1)*k], scales, B, t)
			}
		}()
	}

	// Fused transpose products, target = Σ_k w_k·(DM_kᵀ·scale): Eq. 17
	// applied to the Eq. 14 estimate without forming it. One pass over
	// each reference crosswalk serves every lane of the chunk — entry
	// values and column indices are loaded once and applied across the
	// B-wide scale and accumulator blocks. The references' products are
	// independent, so they run par at a time, each into its own
	// accumulator, and each round folds into the targets in reference
	// order. Per lane the additions therefore run in the same order for
	// every chunk width and every par (rows ascending within a reference,
	// references folded in index order), so a batched attribute is
	// bitwise identical to the same attribute aligned alone.
	used := make([]int, 0, k)
	for kk := range e.refs {
		for t := 0; t < B; t++ {
			if w[t*k+kk] != 0 {
				used = append(used, kk)
				break
			}
		}
	}
	acc := func(j int) []float64 { return y[j*e.nt*B : (j+1)*e.nt*B] }
	for len(used) > 0 {
		round := used[:min(par, len(used))]
		used = used[len(round):]
		var wg sync.WaitGroup
		for j := 1; j < len(round); j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.transposeProduct(round[j], scales, B, acc(j))
			}()
		}
		e.transposeProduct(round[0], scales, B, acc(0))
		wg.Wait()
		for j, kk := range round {
			yj := acc(j)
			for t, i := range live {
				wk := w[t*k+kk]
				if wk == 0 {
					continue
				}
				tgt := results[i].Target
				for c := range tgt {
					tgt[c] += wk * yj[c*B+t]
				}
			}
		}
	}

	materialized.Wait()
	for t, i := range live {
		var rows []int
		if degenerate != nil {
			rows = degenerate[t]
		}
		var dm *sparse.CSR
		if dms != nil {
			dm = dms[t]
		}
		if err := e.finishResult(results[i], objectives[i], dm, rows); err != nil {
			results[i], errs[i] = nil, err
		}
	}
}

// transposeProduct overwrites y with DM_kᵀ·scale for every lane of a
// chunk of width B, both at stride B, accumulating rows in ascending
// order.
func (e *Engine) transposeProduct(kk int, scales []float64, B int, y []float64) {
	clear(y)
	dm := e.refs[kk].DM
	for row := 0; row < e.ns; row++ {
		// Both blocks are resliced to length B so the lane loop carries
		// no bounds checks.
		ss := scales[row*B:][:B:B]
		cols, vals := dm.Row(row)
		for tt, v := range vals {
			ys := y[cols[tt]*B:][:B:B]
			for t, sc := range ss {
				ys[t] += v * sc
			}
		}
	}
}

// finishResult applies the per-attribute steps that follow the kernel:
// the fallback redistribution of the attribute's degenerate rows (added
// to the target, and patched into the estimate) and, with KeepDM,
// attaching the materialised estimate dm.
func (e *Engine) finishResult(res *Result, objective []float64, dm *sparse.CSR, degenerate []int) error {
	var fbSums []float64
	if len(degenerate) > 0 {
		// The fallback's shape is checked only when it is actually
		// needed: a mis-shaped fallback on a problem with no degenerate
		// rows is ignored, matching Align's historical behaviour.
		fb := e.opts.FallbackDM
		if fb.Rows != e.ns || fb.Cols != e.nt {
			return fmt.Errorf("core: fallback DM is %dx%d, want %dx%d", fb.Rows, fb.Cols, e.ns, e.nt)
		}
		fbSums = e.fallbackSums()
		for _, i := range degenerate {
			if fbSums[i] == 0 {
				continue // even the fallback has no support: stay zero
			}
			f := objective[i] / fbSums[i]
			cols, vals := fb.Row(i)
			for p, c := range cols {
				res.Target[c] += f * vals[p]
			}
		}
	}
	if dm != nil {
		res.DM = dm
		if len(degenerate) > 0 {
			res.DM = patchRows(res.DM, e.opts.FallbackDM, fbSums, degenerate, objective)
		}
	}
	return nil
}

// materializeDM builds lane t's estimated disaggregation matrix in a
// standalone copy of the union pattern: the Eq. 14 numerator
// Σ_k w_k·DM_k scattered through the slot maps, each row then scaled
// by its disaggregation factor. Row blocks touch disjoint slot ranges,
// so the parallel path is exact.
func (e *Engine) materializeDM(w, scales []float64, B, t int) *sparse.CSR {
	dm := &sparse.CSR{
		Rows: e.ns, Cols: e.nt,
		IndPtr: append([]int(nil), e.pat.IndPtr...),
		ColIdx: append([]int(nil), e.pat.ColIdx...),
		Val:    make([]float64, len(e.pat.ColIdx)),
	}
	val := dm.Val
	dm.ForEachRowBlock(func(lo, hi int) {
		for k, r := range e.refs {
			wk := w[k]
			if wk == 0 {
				continue
			}
			// Rows lo..hi-1 are one contiguous run of the reference's
			// entries and of their slots.
			plo, phi := r.DM.IndPtr[lo], r.DM.IndPtr[hi]
			slot := e.slots[k][plo:phi]
			for p, v := range r.DM.Val[plo:phi] {
				val[slot[p]] += wk * v
			}
		}
		for i := lo; i < hi; i++ {
			sc := scales[i*B+t]
			for p := dm.IndPtr[i]; p < dm.IndPtr[i+1]; p++ {
				val[p] *= sc
			}
		}
	})
	return dm
}
