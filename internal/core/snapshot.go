package core

import (
	"fmt"
	"io"

	"geoalign/internal/linalg"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// This file maps an Engine onto the internal/snapshot container. The
// container knows only typed sections; the engine schema lives here.
//
// A snapshot stores every attribute-independent precompute NewEngine
// derives from raw crosswalks — the reference CSRs, the Eq. 15 design
// matrix, its Gram system (with the Cholesky factor when it has been
// computed), the union sparsity pattern with
// per-reference slot maps, the Eq. 14 row-sum normalisers and the
// zero-support mask — so loading rebuilds the Engine by wiring views
// over the mapped file instead of re-running the build pipeline.
// Options are deliberately NOT stored: they are caller policy, supplied
// again at load time.

// Fixed section ids. Per-reference sections live at
// refSectionBase + ref*refSectionStride + field.
const (
	secMeta       = 1  // ints: ns, nt, k, flags
	secScalars    = 2  // f64: ‖A‖∞, then a reserved slot (see flagLipschitz)
	secPatIndPtr  = 3  // ints, ns+1: union pattern row pointers
	secPatColIdx  = 4  // ints: union pattern column indices
	secWeightMat  = 5  // f64, ns×k row-major: Eq. 15 design matrix
	secGram       = 6  // f64, k×k row-major: AᵀA
	secCholesky   = 7  // f64, k×k row-major; present iff flagCholeskyPD
	secZeroRow    = 8  // bytes, ns: Eq. 14 zero-support mask (0/1)
	secRefNames   = 9  // strings, k
	secSourceKeys = 10 // strings, optional: source unit keys
	secTargetKeys = 11 // strings, optional: target unit keys

	refSectionBase   = 1000
	refSectionStride = 8
	refDMIndPtr      = 0 // ints, ns+1
	refDMColIdx      = 1 // ints, nnz
	refDMVal         = 2 // f64, nnz
	refSource        = 3 // f64, ns; present only when the reference had one
	refRowSums       = 4 // f64, ns: DM row sums (Eq. 14 denominator basis)
	refSlots         = 5 // ints, nnz: entry positions in the union pattern
)

// Meta flags.
const (
	flagLipschitz    = 1 << 0 // older writers: the reserved scalar held a Lipschitz constant; ignored
	flagCholeskyPD   = 1 << 1 // Cholesky computed, factor stored in secCholesky
	flagCholeskyFail = 1 << 2 // Cholesky attempted, G not positive definite
)

// Plausibility bounds on the meta dimensions, checked before any
// arithmetic on them so corrupt counts cannot overflow size products.
const (
	maxSnapshotUnits = 1 << 40
	maxSnapshotRefs  = 1 << 20
)

// SnapshotMeta carries the unit keys alongside an engine snapshot.
// Engines address units by index; the keys restore the mapping to
// external identifiers (FIPS codes, tract GEOIDs). Either slice may be
// empty.
type SnapshotMeta struct {
	SourceKeys []string
	TargetKeys []string
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", snapshot.ErrCorrupt, fmt.Sprintf(format, args...))
}

// WriteSnapshot serialises the engine's full precompute to w. meta may
// be nil when unit keys are not tracked. The lazily computed Cholesky
// factor is written only if already computed — call
// PrecomputeSolverCaches first to force it in, as `geoalign snapshot
// build` does.
func (e *Engine) WriteSnapshot(w io.Writer, meta *SnapshotMeta) (int64, error) {
	return e.snapshotWriter(meta).WriteTo(w)
}

// WriteSnapshotFile writes the snapshot atomically to path
// (temp file + rename, fsynced).
func (e *Engine) WriteSnapshotFile(path string, meta *SnapshotMeta) error {
	return snapshot.WriteFile(path, e.snapshotWriter(meta))
}

// SnapshotSize returns the exact byte size WriteSnapshot would produce.
func (e *Engine) SnapshotSize(meta *SnapshotMeta) int64 {
	return e.snapshotWriter(meta).Layout()
}

// PrecomputeSolverCaches forces the lazily computed solver state — the
// Gram Cholesky factor — so a subsequent WriteSnapshot persists it and
// loaded engines never pay for it.
func (e *Engine) PrecomputeSolverCaches() {
	e.gram.CholeskyFactor()
}

func (e *Engine) snapshotWriter(meta *SnapshotMeta) *snapshot.Writer {
	k := len(e.refs)
	flags := 0
	scalars := []float64{e.gram.AInf, 0}
	chol, cholDone := e.gram.CachedCholesky()
	if cholDone {
		if chol != nil {
			flags |= flagCholeskyPD
		} else {
			flags |= flagCholeskyFail
		}
	}

	w := snapshot.NewWriter()
	w.Ints(secMeta, []int{e.ns, e.nt, k, flags})
	w.F64(secScalars, scalars)
	w.Ints(secPatIndPtr, e.pat.IndPtr)
	w.Ints(secPatColIdx, e.pat.ColIdx)
	w.F64(secWeightMat, e.weightMat.Data)
	w.F64(secGram, e.gram.Gram().Data)
	if chol != nil {
		w.F64(secCholesky, chol.Data)
	}
	zero := make([]byte, e.ns)
	for i, z := range e.zeroRow {
		if z {
			zero[i] = 1
		}
	}
	w.Bytes(secZeroRow, zero)
	names := make([]string, k)
	for i, r := range e.refs {
		names[i] = r.Name
	}
	w.Strings(secRefNames, names)
	if meta != nil && len(meta.SourceKeys) > 0 {
		w.Strings(secSourceKeys, meta.SourceKeys)
	}
	if meta != nil && len(meta.TargetKeys) > 0 {
		w.Strings(secTargetKeys, meta.TargetKeys)
	}
	for i, r := range e.refs {
		base := uint32(refSectionBase + i*refSectionStride)
		w.Ints(base+refDMIndPtr, r.DM.IndPtr)
		w.Ints(base+refDMColIdx, r.DM.ColIdx)
		w.F64(base+refDMVal, r.DM.Val)
		if r.Source != nil {
			w.F64(base+refSource, r.Source)
		}
		w.F64(base+refRowSums, e.rowSums[i])
		w.Ints(base+refSlots, e.slots[i])
	}
	return w
}

// LoadSnapshot maps the snapshot at path and rebuilds the engine
// around it. opts plays the same role as in NewEngine. Snapshots from
// older writers may carry a Lipschitz constant (flagLipschitz); it is
// accepted and ignored. The returned engine owns the
// mapping: its hot arrays alias the file, so Close must not be called
// before the last Align completes. Results are bit-identical to the
// engine the snapshot was written from.
func LoadSnapshot(path string, opts Options) (*Engine, *SnapshotMeta, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, nil, err
	}
	e, meta, err := engineFromSnapshot(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, meta, nil
}

// LoadSnapshotBytes rebuilds an engine from an in-memory snapshot.
func LoadSnapshotBytes(data []byte, opts Options) (*Engine, *SnapshotMeta, error) {
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		return nil, nil, err
	}
	e, meta, err := engineFromSnapshot(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return e, meta, nil
}

func engineFromSnapshot(f *snapshot.File, opts Options) (*Engine, *SnapshotMeta, error) {
	m, err := f.Ints(secMeta)
	if err != nil {
		return nil, nil, err
	}
	if len(m) < 4 {
		return nil, nil, corruptf("meta section has %d fields, want 4", len(m))
	}
	ns, nt, k, flags := m[0], m[1], m[2], m[3]
	if ns < 0 || nt < 0 || ns > maxSnapshotUnits || nt > maxSnapshotUnits {
		return nil, nil, corruptf("implausible unit counts %d x %d", ns, nt)
	}
	if k < 1 || k > maxSnapshotRefs {
		return nil, nil, corruptf("implausible reference count %d", k)
	}

	scalars, err := f.F64(secScalars)
	if err != nil {
		return nil, nil, err
	}
	if len(scalars) < 2 {
		return nil, nil, corruptf("scalar section has %d values, want 2", len(scalars))
	}

	patIndPtr, err := f.Ints(secPatIndPtr)
	if err != nil {
		return nil, nil, err
	}
	patColIdx, err := f.Ints(secPatColIdx)
	if err != nil {
		return nil, nil, err
	}
	if err := checkCSRShape("union pattern", patIndPtr, patColIdx, nil, ns, nt); err != nil {
		return nil, nil, err
	}
	pat := &sparse.CSR{Rows: ns, Cols: nt, IndPtr: patIndPtr, ColIdx: patColIdx}

	wmData, err := f.F64(secWeightMat)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(wmData)) != int64(ns)*int64(k) {
		return nil, nil, corruptf("design matrix has %d values, want %d x %d", len(wmData), ns, k)
	}
	weightMat := &linalg.Matrix{Rows: ns, Cols: k, Data: wmData}

	gData, err := f.F64(secGram)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(gData)) != int64(k)*int64(k) {
		return nil, nil, corruptf("Gram matrix has %d values, want %d x %d", len(gData), k, k)
	}
	gram := linalg.RestoreGramSystem(weightMat, &linalg.Matrix{Rows: k, Cols: k, Data: gData}, scalars[0])
	switch {
	case flags&flagCholeskyPD != 0:
		cData, err := f.F64(secCholesky)
		if err != nil {
			return nil, nil, err
		}
		if int64(len(cData)) != int64(k)*int64(k) {
			return nil, nil, corruptf("Cholesky factor has %d values, want %d x %d", len(cData), k, k)
		}
		gram.PrimeCholesky(&linalg.Matrix{Rows: k, Cols: k, Data: cData})
	case flags&flagCholeskyFail != 0:
		gram.PrimeCholesky(nil)
	}

	zeroBytes, err := f.Bytes(secZeroRow)
	if err != nil {
		return nil, nil, err
	}
	if len(zeroBytes) != ns {
		return nil, nil, corruptf("zero-row mask has %d entries, want %d", len(zeroBytes), ns)
	}
	zeroRow := make([]bool, ns)
	for i, b := range zeroBytes {
		// The mask is derivable from the pattern; a disagreement means
		// the sections do not belong to the same engine.
		derived := patIndPtr[i] == patIndPtr[i+1]
		if (b != 0) != derived {
			return nil, nil, corruptf("zero-row mask disagrees with the union pattern at row %d", i)
		}
		zeroRow[i] = b != 0
	}

	names, err := f.Strings(secRefNames)
	if err != nil {
		return nil, nil, err
	}
	if len(names) != k {
		return nil, nil, corruptf("%d reference names for %d references", len(names), k)
	}

	e := &Engine{
		ns:   ns,
		nt:   nt,
		refs: make([]Reference, k),
		opts: opts,
		// normSrc stays nil: the design matrix columns hold the same
		// bits, and only the source-override path reads it (extracted
		// lazily by normSrcCols).
		weightMat: weightMat,
		gram:      gram,
		rowSums:   make([][]float64, k),
		maxRow:    make([]float64, k),
		pat:       pat,
		slots:     make([][]int, k),
		zeroRow:   zeroRow,
		snap:      f,
	}
	for i := 0; i < k; i++ {
		base := uint32(refSectionBase + i*refSectionStride)
		indptr, err := f.Ints(base + refDMIndPtr)
		if err != nil {
			return nil, nil, err
		}
		colIdx, err := f.Ints(base + refDMColIdx)
		if err != nil {
			return nil, nil, err
		}
		val, err := f.F64(base + refDMVal)
		if err != nil {
			return nil, nil, err
		}
		what := fmt.Sprintf("reference %d (%s)", i, names[i])
		r := Reference{Name: names[i], DM: &sparse.CSR{Rows: ns, Cols: nt, IndPtr: indptr, ColIdx: colIdx, Val: val}}
		if f.Has(base + refSource) {
			src, err := f.F64(base + refSource)
			if err != nil {
				return nil, nil, err
			}
			if len(src) != ns {
				return nil, nil, corruptf("%s source vector has %d entries, want %d", what, len(src), ns)
			}
			r.Source = src
		}
		e.refs[i] = r

		sums, err := f.F64(base + refRowSums)
		if err != nil {
			return nil, nil, err
		}
		if len(sums) != ns {
			return nil, nil, corruptf("%s row sums have %d entries, want %d", what, len(sums), ns)
		}
		e.rowSums[i] = sums
		e.maxRow[i] = linalg.MaxAbs(sums)

		slots, err := f.Ints(base + refSlots)
		if err != nil {
			return nil, nil, err
		}
		if err := checkSlots(what, slots, r.DM, pat); err != nil {
			return nil, nil, err
		}
		e.slots[i] = slots
	}

	e.initPools()

	var meta SnapshotMeta
	if f.Has(secSourceKeys) {
		if meta.SourceKeys, err = f.Strings(secSourceKeys); err != nil {
			return nil, nil, err
		}
	}
	if f.Has(secTargetKeys) {
		if meta.TargetKeys, err = f.Strings(secTargetKeys); err != nil {
			return nil, nil, err
		}
	}
	return e, &meta, nil
}

// checkCSRShape validates the structural invariants every loaded CSR
// must satisfy before the engine's unchecked hot loops may index into
// it: correct pointer array length, monotone row pointers covering
// exactly the stored entries, and strictly increasing in-range column
// indices per row (the documented CSR invariant).
func checkCSRShape(what string, indptr, colIdx []int, val []float64, rows, cols int) error {
	if len(indptr) != rows+1 {
		return corruptf("%s has %d row pointers, want %d", what, len(indptr), rows+1)
	}
	if indptr[0] != 0 {
		return corruptf("%s row pointers start at %d, want 0", what, indptr[0])
	}
	if indptr[rows] != len(colIdx) {
		return corruptf("%s row pointers end at %d, but %d entries are stored", what, indptr[rows], len(colIdx))
	}
	if val != nil && len(val) != len(colIdx) {
		return corruptf("%s has %d values for %d column indices", what, len(val), len(colIdx))
	}
	n := len(colIdx)
	for i := 0; i < rows; i++ {
		lo, hi := indptr[i], indptr[i+1]
		// hi > n guards against an interior overshoot compensated by a
		// later decrease: the total matching len(colIdx) does not make
		// every prefix in range, and the entry loop must never index
		// past the section.
		if lo > hi || hi > n {
			return corruptf("%s row %d pointers decrease or overshoot (%d, %d of %d)", what, i, lo, hi, n)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			c := colIdx[p]
			if c <= prev || c >= cols {
				return corruptf("%s row %d column indices are not strictly increasing in [0,%d)", what, i, cols)
			}
			prev = c
		}
	}
	return nil
}

// checkSlots validates a reference's crosswalk and slot map in a
// single pass: the CSR invariants of checkCSRShape, plus every stored
// entry's slot landing on the matching union-pattern column of its own
// row. The combined guarantee is what makes the engine's unchecked
// hot-loop indexing (the materializeDM scatter) safe on loaded data;
// one fused pass over the entries keeps the mmap cold-start cheap.
func checkSlots(what string, slots []int, dm, pat *sparse.CSR) error {
	indptr, colIdx := dm.IndPtr, dm.ColIdx
	rows, cols := dm.Rows, dm.Cols
	if len(indptr) != rows+1 {
		return corruptf("%s has %d row pointers, want %d", what, len(indptr), rows+1)
	}
	if indptr[0] != 0 {
		return corruptf("%s row pointers start at %d, want 0", what, indptr[0])
	}
	if indptr[rows] != len(colIdx) {
		return corruptf("%s row pointers end at %d, but %d entries are stored", what, indptr[rows], len(colIdx))
	}
	if dm.Val != nil && len(dm.Val) != len(colIdx) {
		return corruptf("%s has %d values for %d column indices", what, len(dm.Val), len(colIdx))
	}
	if len(slots) != len(colIdx) {
		return corruptf("%s has %d slots for %d entries", what, len(slots), len(colIdx))
	}
	patCol := pat.ColIdx
	n := len(colIdx)
	slots = slots[:n]
	for i := 0; i < rows; i++ {
		lo, hi := indptr[i], indptr[i+1]
		// hi > n guards against an interior overshoot compensated by a
		// later decrease (see checkCSRShape); it also lets the compiler
		// drop the bounds checks in the entry loop.
		if lo > hi || hi > n {
			return corruptf("%s row %d pointers decrease or overshoot (%d, %d of %d)", what, i, lo, hi, n)
		}
		plo, phi := pat.IndPtr[i], pat.IndPtr[i+1]
		if plo < 0 || plo > phi || phi > len(patCol) {
			return corruptf("%s union pattern row %d is malformed", what, i)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			c := colIdx[p]
			if c <= prev || c >= cols {
				return corruptf("%s row %d column indices are not strictly increasing in [0,%d)", what, i, cols)
			}
			prev = c
			s := slots[p]
			if s < plo || s >= phi || patCol[s] != c {
				return corruptf("%s slot map entry %d does not land on its pattern column", what, p)
			}
		}
	}
	return nil
}
