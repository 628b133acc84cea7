// Parallel kernels. The CSR operations on GeoAlign's hot path — row
// sums, column sums, matrix–vector products and row scaling — split
// their row ranges across goroutines when the matrix is large enough
// for the fork/join overhead to pay off, and fall back to the serial
// loops below a non-zero-count threshold. Row-partitioned kernels
// (RowSums, MulVec, ScaleRows) write disjoint output ranges and are
// bitwise identical to the serial code; column-accumulating kernels
// (ColSums, MulVecT) reduce per-worker partials in worker order, which
// is deterministic for a fixed worker count but may reassociate
// floating-point additions relative to the serial loop.
package sparse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelThreshold is the non-zero count above which the CSR
// kernels use the parallel row-partitioned paths.
const DefaultParallelThreshold = 1 << 15

var (
	parallelThreshold atomic.Int64
	kernelWorkers     atomic.Int64 // 0 ⇒ runtime.GOMAXPROCS(0)
)

func init() {
	parallelThreshold.Store(DefaultParallelThreshold)
}

// SetParallelThreshold sets the number of stored entries at or above
// which the kernels go parallel. 0 forces the parallel path for every
// matrix (useful under the race detector); a very large value disables
// it. Safe to call concurrently with kernel execution.
func SetParallelThreshold(nnz int) { parallelThreshold.Store(int64(nnz)) }

// ParallelThreshold returns the current parallel threshold.
func ParallelThreshold() int { return int(parallelThreshold.Load()) }

// SetKernelWorkers overrides the worker count used by the parallel
// kernels. n <= 0 restores the default, runtime.GOMAXPROCS(0). Mainly
// useful in tests that must exercise the multi-goroutine paths on
// single-CPU machines.
func SetKernelWorkers(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int64(n))
}

// KernelWorkerCount returns how many workers a kernel over a matrix
// with the given nnz should use; 1 means "run serially". Kernels
// outside this package use it to follow the same threshold and
// worker-count settings.
func KernelWorkerCount(nnz int) int {
	if int64(nnz) < parallelThreshold.Load() {
		return 1
	}
	w := int(kernelWorkers.Load())
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// rowBlocks partitions [0, Rows) into at most n contiguous ranges of
// roughly equal stored-entry count. Ranges are non-empty and cover all
// rows.
func (m *CSR) rowBlocks(n int) [][2]int {
	if n < 1 {
		n = 1
	}
	nnz := m.NNZ()
	blocks := make([][2]int, 0, n)
	lo := 0
	for b := 0; b < n && lo < m.Rows; b++ {
		// Aim for the remaining nnz spread over the remaining blocks.
		want := (nnz - m.IndPtr[lo] + (n - b - 1)) / (n - b)
		hi := lo + 1
		for hi < m.Rows && m.IndPtr[hi]-m.IndPtr[lo] < want {
			hi++
		}
		if b == n-1 {
			hi = m.Rows
		}
		blocks = append(blocks, [2]int{lo, hi})
		lo = hi
	}
	if lo < m.Rows { // ragged tail (defensive; b==n-1 already covers it)
		blocks = append(blocks, [2]int{lo, m.Rows})
	}
	return blocks
}

// ForEachRowBlock runs fn over disjoint contiguous row ranges covering
// the whole matrix — concurrently when the matrix is at or above the
// parallel threshold, in a single call fn(0, Rows) otherwise. fn must
// only touch state derived from its own row range.
func (m *CSR) ForEachRowBlock(fn func(lo, hi int)) {
	w := KernelWorkerCount(m.NNZ())
	if w <= 1 || m.Rows < 2 {
		fn(0, m.Rows)
		return
	}
	blocks := m.rowBlocks(w)
	var wg sync.WaitGroup
	for _, blk := range blocks {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(blk[0], blk[1])
	}
	wg.Wait()
}

// RowSumsInto overwrites out (length Rows) with the row sums.
func (m *CSR) RowSumsInto(out []float64) {
	if len(out) != m.Rows {
		panic(fmt.Sprintf("sparse: RowSumsInto length %d != rows %d", len(out), m.Rows))
	}
	m.ForEachRowBlock(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for _, v := range m.Val[m.IndPtr[i]:m.IndPtr[i+1]] {
				s += v
			}
			out[i] = s
		}
	})
}

// MulVecInto overwrites y (length Rows) with M·x.
func (m *CSR) MulVecInto(y, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec length %d != cols %d", len(x), m.Cols))
	}
	if len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecInto output length %d != rows %d", len(y), m.Rows))
	}
	m.ForEachRowBlock(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
				s += m.Val[k] * x[m.ColIdx[k]]
			}
			y[i] = s
		}
	})
}

// colAccumulate overwrites out (length Cols) with a column-wise
// accumulation over rows, where perRow scatters one row's contribution
// into its destination buffer. Parallel workers accumulate into private
// buffers that are then reduced in worker order.
func (m *CSR) colAccumulate(out []float64, perRow func(dst []float64, i int)) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("sparse: column accumulation length %d != cols %d", len(out), m.Cols))
	}
	w := KernelWorkerCount(m.NNZ())
	if w <= 1 || m.Rows < 2 {
		for j := range out {
			out[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			perRow(out, i)
		}
		return
	}
	blocks := m.rowBlocks(w)
	partials := make([][]float64, len(blocks))
	var wg sync.WaitGroup
	for bi, blk := range blocks {
		wg.Add(1)
		go func(bi, lo, hi int) {
			defer wg.Done()
			dst := make([]float64, m.Cols)
			for i := lo; i < hi; i++ {
				perRow(dst, i)
			}
			partials[bi] = dst
		}(bi, blk[0], blk[1])
	}
	wg.Wait()
	for j := range out {
		out[j] = 0
	}
	for _, p := range partials {
		for j, v := range p {
			out[j] += v
		}
	}
}

// ColSumsInto overwrites out (length Cols) with the column sums.
func (m *CSR) ColSumsInto(out []float64) {
	m.colAccumulate(out, func(dst []float64, i int) {
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			dst[m.ColIdx[k]] += m.Val[k]
		}
	})
}

// MulVecTInto overwrites y (length Cols) with Mᵀ·x.
func (m *CSR) MulVecTInto(y, x []float64) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecT length %d != rows %d", len(x), m.Rows))
	}
	m.colAccumulate(y, func(dst []float64, i int) {
		xi := x[i]
		if xi == 0 {
			return
		}
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			dst[m.ColIdx[k]] += m.Val[k] * xi
		}
	})
}
