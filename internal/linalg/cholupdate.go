package linalg

import (
	"errors"
	"fmt"
	"math"
)

// This file implements incremental maintenance of the Gram-form solver
// state. A source-row revision replaces one row a_i of the design
// matrix, which perturbs the normal equations by a symmetric rank-two
// correction:
//
//	G' = G − a_i·a_iᵀ + a_i'·a_i'ᵀ
//
// The Gram matrix itself is patched exactly in O(k²). The cached lower
// Cholesky factor is maintained by a Givens rank-one update (LINPACK
// dchud) for the added row followed by a hyperbolic downdate (dchdd)
// for the removed one; a downdate that would drive the factor
// indefinite — or too long a chain of rank-one ops — triggers a full
// refactorisation from the exact G, so the factor never drifts far from
// the matrix it is supposed to factor.

// ErrDowndate is returned by CholDowndate when removing x·xᵀ would make
// the factored matrix numerically indefinite. Callers recover by
// refactorising from the exact matrix.
var ErrDowndate = errors.New("linalg: rank-one downdate leaves the matrix indefinite")

// cholRefactorEvery bounds the length of a rank-one update chain on the
// cached Cholesky factor. Each Givens/hyperbolic pass is backward
// stable, but errors accumulate across a long chain; after this many
// row updates the factor is recomputed from the exact Gram matrix.
const cholRefactorEvery = 512

// CholUpdate overwrites the lower Cholesky factor l of some SPD matrix
// M with the factor of M + x·xᵀ, using one sweep of Givens rotations
// (the LINPACK dchud recurrence). l must be a valid lower factor
// (strictly positive diagonal); x is not modified. Cost O(n²).
func CholUpdate(l *Matrix, x []float64) {
	n := l.Rows
	if l.Cols != n {
		panic(fmt.Sprintf("linalg: CholUpdate factor is %dx%d, want square", l.Rows, l.Cols))
	}
	if len(x) != n {
		panic(fmt.Sprintf("linalg: CholUpdate vector length %d != order %d", len(x), n))
	}
	w := make([]float64, n)
	copy(w, x)
	for k := 0; k < n; k++ {
		wk := w[k]
		if wk == 0 {
			continue
		}
		lkk := l.At(k, k)
		r := math.Hypot(lkk, wk)
		c := r / lkk
		s := wk / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			lik := (l.At(i, k) + s*w[i]) / c
			w[i] = c*w[i] - s*lik
			l.Set(i, k, lik)
		}
	}
}

// CholDowndate overwrites the lower Cholesky factor l of some SPD
// matrix M with the factor of M − x·xᵀ (the LINPACK dchdd recurrence:
// solve L·p = x, then unwind hyperbolic rotations). If the downdated
// matrix is not safely positive definite the factor is left unchanged
// and ErrDowndate is returned. x is not modified. Cost O(n²).
func CholDowndate(l *Matrix, x []float64) error {
	n := l.Rows
	if l.Cols != n {
		panic(fmt.Sprintf("linalg: CholDowndate factor is %dx%d, want square", l.Rows, l.Cols))
	}
	if len(x) != n {
		panic(fmt.Sprintf("linalg: CholDowndate vector length %d != order %d", len(x), n))
	}
	if n == 0 {
		return nil
	}
	// Forward solve L·p = x.
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * p[j]
		}
		d := l.At(i, i)
		if d <= 0 {
			return ErrDowndate
		}
		p[i] = s / d
	}
	rho2 := 1 - Dot(p, p)
	// Demand a safely positive residual: a downdate that lands within a
	// few ulps of singular produces a factor too inaccurate to reuse.
	if rho2 <= float64(n)*machEps {
		return ErrDowndate
	}
	alpha := math.Sqrt(rho2)
	c := make([]float64, n)
	s := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		t := math.Hypot(alpha, p[i])
		c[i] = alpha / t
		s[i] = p[i] / t
		alpha = t
	}
	for j := 0; j < n; j++ {
		row := l.Row(j)
		xx := 0.0
		for i := j; i >= 0; i-- {
			t := c[i]*xx + s[i]*row[i]
			row[i] = c[i]*row[i] - s[i]*xx
			xx = t
		}
	}
	return nil
}

// MutableClone returns a GramSystem around the caller's writable copy
// of the design matrix, carrying over the receiver's Gram matrix (deep
// copied), ‖A‖∞ and any cached Cholesky factor so incremental updates
// start from fully primed state. a must be an element-wise identical
// copy of the receiver's design matrix — typically Clone() of it — that
// no other goroutine can see; the receiver is not modified and remains
// safe for concurrent readers.
func (gs *GramSystem) MutableClone(a *Matrix) *GramSystem {
	if a.Rows != gs.a.Rows || a.Cols != gs.a.Cols {
		panic(fmt.Sprintf("linalg: MutableClone matrix is %dx%d, want %dx%d", a.Rows, a.Cols, gs.a.Rows, gs.a.Cols))
	}
	out := &GramSystem{a: a, G: gs.G.Clone(), AInf: gs.AInf}
	gs.mu.Lock()
	if gs.cholDone {
		out.cholDone = true
		if gs.chol != nil {
			out.chol = gs.chol.Clone()
		}
	}
	gs.mu.Unlock()
	return out
}

// UpdateRow replaces row i of the design matrix with newRow and folds
// the change into the cached solver state: G absorbs the exact rank-two
// correction newRow·newRowᵀ − oldRow·oldRowᵀ in O(k²), the cached
// Cholesky factor is maintained by CholUpdate + CholDowndate (falling
// back to a full refactorisation from G when the downdate reports
// indefiniteness, when a previously non-PD system may have regained
// definiteness, or every cholRefactorEvery updates). ‖A‖∞ is NOT
// refreshed here — apply a batch of row updates, then call
// RefreshInfNorm once.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) UpdateRow(i int, newRow []float64) {
	k := gs.a.Cols
	if len(newRow) != k {
		panic(fmt.Sprintf("linalg: UpdateRow vector length %d != cols %d", len(newRow), k))
	}
	row := gs.a.Row(i)
	old := make([]float64, k)
	copy(old, row)
	copy(row, newRow)
	for p := 0; p < k; p++ {
		gp := gs.G.Row(p)
		np, op := newRow[p], old[p]
		for q := 0; q < k; q++ {
			gp[q] += np*newRow[q] - op*old[q]
		}
	}
	if !gs.cholDone {
		return
	}
	if gs.chol == nil {
		// The previous G was not numerically PD; the revision may have
		// restored definiteness, so retry from scratch (k is small).
		gs.refactor()
		return
	}
	gs.cholUpdates++
	if gs.cholUpdates >= cholRefactorEvery {
		gs.refactor()
		return
	}
	CholUpdate(gs.chol, newRow)
	if err := CholDowndate(gs.chol, old); err != nil {
		gs.refactor()
	}
}

// RecomputeColumns recomputes the Gram rows/columns for the given
// design-matrix columns by exact dot products, after the caller has
// rewritten those columns of the design matrix in place. It is the bulk
// path for whole-column rescales (a revision that moves a column's
// max-normaliser), where a row-by-row rank-one chain would be both
// slower and less accurate. The cached Cholesky factor is refactorised
// from the new G.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) RecomputeColumns(cols []int) {
	if len(cols) == 0 {
		return
	}
	a, k := gs.a, gs.a.Cols
	dots := make([]float64, k)
	for _, j := range cols {
		if j < 0 || j >= k {
			panic(fmt.Sprintf("linalg: RecomputeColumns index %d out of range [0,%d)", j, k))
		}
		for q := range dots {
			dots[q] = 0
		}
		for r := 0; r < a.Rows; r++ {
			row := a.Row(r)
			vj := row[j]
			if vj == 0 {
				continue
			}
			for q, v := range row {
				dots[q] += vj * v
			}
		}
		grow := gs.G.Row(j)
		for q, v := range dots {
			grow[q] = v
			gs.G.Set(q, j, v)
		}
	}
	if gs.cholDone {
		gs.refactor()
	}
}

// RefreshInfNorm recomputes ‖A‖∞ from the (patched) design matrix so
// solver tolerances match a from-scratch build exactly. Call once after
// a batch of UpdateRow/RecomputeColumns calls.
func (gs *GramSystem) RefreshInfNorm() {
	gs.AInf = matInfNorm(gs.a)
}

// refactor recomputes the cached Cholesky factor from the exact G,
// resetting the rank-one chain length. Mirrors CholeskyFactor's
// convention: a failed factorisation is cached as chol == nil.
func (gs *GramSystem) refactor() {
	gs.cholUpdates = 0
	if l, err := Cholesky(gs.G); err == nil {
		gs.chol = l
	} else {
		gs.chol = nil
	}
	gs.cholDone = true
}
