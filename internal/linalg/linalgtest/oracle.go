// Package linalgtest holds the weight-learning solvers that production
// code no longer links: the dense augmented-system active-set solve,
// the dense and Gram-form projected-gradient (FISTA) solvers, and the
// simplex projection and power iteration they rely on. They are the
// independent numerical oracles for the Gram fast path (agreement to
// 1e-9) and the subject of the solver ablation benchmark. Import this
// package only from _test.go files.
package linalgtest

import (
	"fmt"
	"math"

	"geoalign/internal/linalg"
)

// SimplexLeastSquares solves the weight-learning problem of GeoAlign
// (Eq. 15 of the paper):
//
//	min_β ½‖A·β − b‖₂²  subject to  Σ_k β_k = 1,  β_k ≥ 0
//
// on the tall system directly. The equality constraint is enforced by
// augmenting the system with a heavily weighted row μ·1ᵀβ = μ and
// running Lawson–Hanson NNLS, after which β is renormalised so the
// constraint holds exactly. linalg.SimplexLeastSquaresGram reproduces
// this formulation in k-space.
//
// Degenerate inputs are handled conservatively: a single column yields
// β = [1]; if NNLS returns the zero vector (b orthogonal to the cone),
// the uniform weights 1/k are returned.
func SimplexLeastSquares(a *linalg.Matrix, b []float64) ([]float64, error) {
	m, k := a.Rows, a.Cols
	if k == 0 {
		return nil, linalg.ErrNoColumns
	}
	if len(b) != m {
		return nil, fmt.Errorf("linalgtest: simplex LS vector length %d != rows %d", len(b), m)
	}
	if k == 1 {
		return []float64{1}, nil
	}

	mu := 1e4 * (infNorm(a) + linalg.Norm2(b) + 1)
	aug := linalg.NewMatrix(m+1, k)
	copy(aug.Data, a.Data)
	for j := 0; j < k; j++ {
		aug.Set(m, j, mu)
	}
	baug := make([]float64, m+1)
	copy(baug, b)
	baug[m] = mu

	beta, err := linalg.NNLS(aug, baug)
	if err != nil {
		return nil, err
	}
	return renormalise(beta), nil
}

// SimplexLeastSquaresPG solves the same problem as SimplexLeastSquares
// with an accelerated projected-gradient method (FISTA with projection
// onto the simplex); maxIter <= 0 and tol <= 0 select defaults.
func SimplexLeastSquaresPG(a *linalg.Matrix, b []float64, maxIter int, tol float64) ([]float64, error) {
	m, k := a.Rows, a.Cols
	if k == 0 {
		return nil, linalg.ErrNoColumns
	}
	if len(b) != m {
		return nil, fmt.Errorf("linalgtest: simplex LS vector length %d != rows %d", len(b), m)
	}
	ay := make([]float64, m)
	grad := func(dst, y []float64) {
		// grad = Aᵀ(A·y − b)
		a.MulVecInto(ay, y)
		for i := range ay {
			ay[i] -= b[i]
		}
		a.MulVecTInto(dst, ay)
	}
	return fista(k, PowerIterSym(a.Gram(), 200), maxIter, tol, grad), nil
}

// SimplexLeastSquaresPGGram is the Gram-form FISTA solver: the same
// iteration as SimplexLeastSquaresPG with the gradient computed as
// G·y − c from g = AᵀA and c = Aᵀb. lip is the gradient Lipschitz
// constant; lip <= 0 estimates it by power iteration on g.
func SimplexLeastSquaresPGGram(g *linalg.Matrix, c []float64, lip float64, maxIter int, tol float64) ([]float64, error) {
	k := g.Rows
	if k == 0 {
		return nil, linalg.ErrNoColumns
	}
	if g.Cols != k {
		return nil, fmt.Errorf("linalgtest: simplex LS Gram matrix is %dx%d, want square", g.Rows, g.Cols)
	}
	if len(c) != k {
		return nil, fmt.Errorf("linalgtest: simplex LS Gram vector length %d != order %d", len(c), k)
	}
	if lip <= 0 {
		lip = PowerIterSym(g, 200)
	}
	grad := func(dst, y []float64) {
		g.MulVecInto(dst, y)
		for j := range dst {
			dst[j] -= c[j]
		}
	}
	return fista(k, lip, maxIter, tol, grad), nil
}

// SimplexLSPG runs the Gram-form FISTA solver against a cached system
// for right-hand side b, estimating the Lipschitz constant from G.
func SimplexLSPG(gs *linalg.GramSystem, b []float64, maxIter int, tol float64) ([]float64, error) {
	k := gs.Cols()
	if k == 0 {
		return nil, linalg.ErrNoColumns
	}
	if len(b) != gs.Rows() {
		return nil, fmt.Errorf("linalgtest: simplex LS vector length %d != rows %d", len(b), gs.Rows())
	}
	c := make([]float64, k)
	gs.ApplyTInto(c, b)
	return SimplexLeastSquaresPGGram(gs.G, c, 0, maxIter, tol)
}

// fista runs the accelerated projected-gradient iteration over the
// probability simplex from the uniform point, with step 1/lip. grad
// writes the gradient at y into dst.
func fista(k int, lip float64, maxIter int, tol float64, grad func(dst, y []float64)) []float64 {
	x := make([]float64, k)
	for j := range x {
		x[j] = 1 / float64(k)
	}
	if k == 1 || lip <= 0 {
		return x
	}
	if maxIter <= 0 {
		maxIter = 2000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	step := 1 / lip
	y := append([]float64(nil), x...)
	t := 1.0
	prev := make([]float64, k)
	gy := make([]float64, k)
	proj := make([]float64, k)
	for iter := 0; iter < maxIter; iter++ {
		copy(prev, x)
		grad(gy, y)
		for j := range x {
			x[j] = y[j] - step*gy[j]
		}
		projectSimplexInto(x, proj)
		tNext := (1 + math.Sqrt(1+4*t*t)) / 2
		for j := range y {
			y[j] = x[j] + (t-1)/tNext*(x[j]-prev[j])
		}
		t = tNext
		var diff float64
		for j := range x {
			diff += math.Abs(x[j] - prev[j])
		}
		if diff < tol {
			break
		}
	}
	return x
}

// ProjectSimplex projects v in place onto the probability simplex
// {x : Σx = 1, x ≥ 0} using the sort-based algorithm of Held, Wolfe &
// Crowder (1974).
func ProjectSimplex(v []float64) {
	projectSimplexInto(v, make([]float64, len(v)))
}

// projectSimplexInto is ProjectSimplex with a caller-provided scratch
// slice holding the sorted copy; scratch must have length len(v).
func projectSimplexInto(v, scratch []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	u := scratch[:n]
	copy(u, v)
	SortDescending(u)
	var css float64
	rho := -1
	for i := 0; i < n; i++ {
		css += u[i]
		if u[i]-(css-1)/float64(i+1) > 0 {
			rho = i
		}
	}
	if rho < 0 {
		// All mass below threshold; fall back to uniform.
		for i := range v {
			v[i] = 1 / float64(n)
		}
		return
	}
	css = 0
	for i := 0; i <= rho; i++ {
		css += u[i]
	}
	theta := (css - 1) / float64(rho+1)
	for i := range v {
		if w := v[i] - theta; w > 0 {
			v[i] = w
		} else {
			v[i] = 0
		}
	}
}

// SortDescending sorts v in place, largest first, by an
// allocation-free heapsort.
func SortDescending(v []float64) {
	n := len(v)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMin(v, i, n)
	}
	for end := n - 1; end > 0; end-- {
		v[0], v[end] = v[end], v[0]
		siftDownMin(v, 0, end)
	}
}

// siftDownMin maintains a min-heap so the heapsort above yields a
// descending order.
func siftDownMin(v []float64, start, end int) {
	root := start
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && v[child+1] < v[child] {
			child++
		}
		if v[root] <= v[child] {
			return
		}
		v[root], v[child] = v[child], v[root]
		root = child
	}
}

// PowerIterSym estimates the largest eigenvalue of a symmetric PSD
// matrix by power iteration — for a Gram matrix AᵀA, the gradient
// Lipschitz constant of ½‖Aβ−b‖².
func PowerIterSym(g *linalg.Matrix, iters int) float64 {
	n := g.Rows
	if n == 0 {
		return 0
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	w := make([]float64, n)
	gw := make([]float64, n)
	var lambda float64
	for it := 0; it < iters; it++ {
		g.MulVecInto(w, v)
		nw := linalg.Norm2(w)
		if nw == 0 {
			return 0
		}
		for i := range w {
			w[i] /= nw
		}
		g.MulVecInto(gw, w)
		lambdaNew := linalg.Dot(w, gw)
		if it > 4 && math.Abs(lambdaNew-lambda) <= 1e-12*math.Abs(lambdaNew) {
			return lambdaNew
		}
		lambda = lambdaNew
		v, w = w, v
	}
	return lambda
}

// renormalise scales beta onto the simplex, falling back to the
// uniform combination when NNLS returned the zero vector (b orthogonal
// to every feasible direction).
func renormalise(beta []float64) []float64 {
	s := linalg.Sum(beta)
	if s <= 0 || math.IsNaN(s) {
		for j := range beta {
			beta[j] = 1 / float64(len(beta))
		}
		return beta
	}
	linalg.Scale(1/s, beta)
	return beta
}

// infNorm is ‖A‖∞ with the all-zero convention of the production
// solvers (1, so tolerances stay positive).
func infNorm(a *linalg.Matrix) float64 {
	var mx float64
	for i := 0; i < a.Rows; i++ {
		var s float64
		for _, v := range a.Row(i) {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	if mx == 0 {
		return 1
	}
	return mx
}
