// Package rwr implements the reference Random Walk with Restart
// computations: the iterative power method (the paper's Equation (1),
// used as the exactness oracle in tests and the precision baseline in
// experiments) and a dense direct solve for small graphs.
package rwr

import (
	"fmt"
	"math"

	"kdash/internal/sparse"
	"kdash/internal/topk"
)

// DefaultRestart is the restart probability c used throughout the paper's
// evaluation (Section 6).
const DefaultRestart = 0.95

// DefaultTol is the L1 convergence tolerance for the iterative method.
const DefaultTol = 1e-12

// DefaultMaxIter bounds the iterative method. With c = 0.95 the iteration
// contracts by 0.05 per step, so convergence is fast; lower c needs more
// iterations and this bound is generous.
const DefaultMaxIter = 10000

// Iterative computes the full proximity vector p for query node q by
// recursively applying p = (1-c) A p + c q until the L1 change is below
// tol. A must be the column-normalised adjacency (CSC). It returns the
// proximity vector and the number of iterations performed.
func Iterative(a *sparse.CSC, q int, c, tol float64, maxIter int) ([]float64, int, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, 0, fmt.Errorf("rwr: adjacency must be square, got %dx%d", a.Rows, a.Cols)
	}
	if q < 0 || q >= n {
		return nil, 0, fmt.Errorf("rwr: query node %d outside [0,%d)", q, n)
	}
	if c <= 0 || c >= 1 {
		return nil, 0, fmt.Errorf("rwr: restart probability %v outside (0,1)", c)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	p := make([]float64, n)
	next := make([]float64, n)
	p[q] = 1
	oneMinusC := 1 - c
	for it := 1; it <= maxIter; it++ {
		a.MulVecTo(next, p)
		for i := range next {
			next[i] *= oneMinusC
		}
		next[q] += c
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if diff < tol {
			return p, it, nil
		}
	}
	return p, maxIter, fmt.Errorf("rwr: no convergence within %d iterations (last diff above %g)", maxIter, tol)
}

// IterativeVec generalises Iterative to an arbitrary restart distribution
// (Personalized PageRank, the paper's footnote 6): p = (1-c) A p + c r,
// where r is a non-negative vector summing to 1.
//
//kdash:testonly
func IterativeVec(a *sparse.CSC, restart []float64, c, tol float64, maxIter int) ([]float64, int, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, 0, fmt.Errorf("rwr: adjacency must be square, got %dx%d", a.Rows, a.Cols)
	}
	if len(restart) != n {
		return nil, 0, fmt.Errorf("rwr: restart vector has length %d, want %d", len(restart), n)
	}
	sum := 0.0
	for _, v := range restart {
		if v < 0 {
			return nil, 0, fmt.Errorf("rwr: restart vector has negative entry %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, 0, fmt.Errorf("rwr: restart vector sums to %v, want 1", sum)
	}
	if c <= 0 || c >= 1 {
		return nil, 0, fmt.Errorf("rwr: restart probability %v outside (0,1)", c)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	p := make([]float64, n)
	copy(p, restart)
	next := make([]float64, n)
	for it := 1; it <= maxIter; it++ {
		a.MulVecTo(next, p)
		for i := range next {
			next[i] = (1-c)*next[i] + c*restart[i]
		}
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if diff < tol {
			return p, it, nil
		}
	}
	return p, maxIter, fmt.Errorf("rwr: no convergence within %d iterations", maxIter)
}

// TopK runs the iterative method and extracts the K highest-proximity
// nodes, which is the paper's definition of the exact answer.
func TopK(a *sparse.CSC, q, k int, c float64) ([]topk.Result, error) {
	p, _, err := Iterative(a, q, c, DefaultTol, DefaultMaxIter)
	if err != nil {
		return nil, err
	}
	return topk.FromVector(p, k), nil
}

// DenseSolve computes p = c W^{-1} q exactly by Gaussian elimination on
// the dense n x n system (Equation (2)). Only suitable for small n; used
// to cross-check both the iterative method and the LU-based computation.
//
//kdash:testonly
func DenseSolve(a *sparse.CSC, q int, c float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("rwr: adjacency must be square, got %dx%d", a.Rows, a.Cols)
	}
	if q < 0 || q >= n {
		return nil, fmt.Errorf("rwr: query node %d outside [0,%d)", q, n)
	}
	// Build W = I - (1-c) A densely.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		w[i][i] = 1
	}
	for col := 0; col < n; col++ {
		for i := a.ColPtr[col]; i < a.ColPtr[col+1]; i++ {
			w[a.RowIdx[i]][col] -= (1 - c) * a.Val[i]
		}
	}
	b := make([]float64, n)
	b[q] = c
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(w[r][col]) > math.Abs(w[piv][col]) {
				piv = r
			}
		}
		if math.Abs(w[piv][col]) < 1e-300 {
			return nil, fmt.Errorf("rwr: singular system at column %d", col)
		}
		w[col], w[piv] = w[piv], w[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := w[r][col] / w[col][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				w[r][cc] -= f * w[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := b[col]
		for cc := col + 1; cc < n; cc++ {
			s -= w[col][cc] * b[cc]
		}
		b[col] = s / w[col][col]
	}
	return b, nil
}
