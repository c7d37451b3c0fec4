package core

// The split solve over original node ids: the index's one solve
// primitive. SolveLower runs the L^{-1} pass of a sparse right-hand
// side into a workspace, and UpperDot completes any single node's value
// of the solution with one U^{-1} row dot, so a caller that reads a few
// rows of a solution pays for those rows only. This is what the sharded
// cross-shard push runs for every query, single or batched.

import (
	"fmt"
	"runtime"

	"kdash/internal/lu"
)

// SolveLower accumulates the L^{-1} pass of y = W^{-1} r into w (from
// NewWorkspace), with the right-hand side given sparsely as parallel
// (idx, val) slices over original node ids, idx strictly ascending —
// the accumulation order Index.Solve's dense scan uses, so every
// UpperDot of w is bit for bit that row of Solve. The right-hand side
// is validated before anything is written: a rejected one leaves w as
// it was.
//
//kdash:noalloc
//kdash:deterministic
func (ix *Index) SolveLower(idx []int, val []float64, w *lu.Workspace) error {
	if len(idx) != len(val) {
		return fmt.Errorf("core: sparse rhs has %d indices but %d values", len(idx), len(val)) //kdash:allow(hotalloc) error construction only on invalid input, off the steady-state path
	}
	prev := -1
	for _, u := range idx {
		if u < 0 || u >= ix.n {
			return fmt.Errorf("core: sparse rhs node %d outside [0,%d)", u, ix.n) //kdash:allow(hotalloc) error construction only on invalid input
		}
		if u <= prev {
			return fmt.Errorf("core: sparse rhs indices must be strictly ascending (%d after %d)", u, prev) //kdash:allow(hotalloc) error construction only on invalid input
		}
		prev = u
	}
	ix.inv.SolveLower(w, idx, val, ix.perm)
	runtime.KeepAlive(ix) //kdash:allow(hotalloc) boxing a pointer allocates nothing
	return nil
}

// NewWorkspace returns an empty L^{-1} workspace for SolveLower.
func (ix *Index) NewWorkspace() *lu.Workspace { return ix.inv.NewWorkspace() }

// PackUpperRows copies the U^{-1} rows of nodes us into one packed
// block whose Dot(k, w.W) is bit for bit UpperDot(us[k], w). The copy
// lives on the Go heap, apart from the index's arrays.
func (ix *Index) PackUpperRows(us []int) *lu.UpperRows {
	rows := make([]int, len(us))
	for k, u := range us {
		rows[k] = int(ix.perm[u])
	}
	r := ix.inv.PackUpperRows(rows)
	runtime.KeepAlive(ix)
	return r
}

// UpperDot completes one row of a split solve: node u's value of the
// solution whose L^{-1} pass w holds, as one U^{-1} row dot — bit for
// bit Solve's y[u] on the same right-hand side.
//
//kdash:noalloc
//kdash:deterministic
func (ix *Index) UpperDot(u int, w *lu.Workspace) float64 {
	v := ix.inv.UpperRowDot(int(ix.perm[u]), w.W)
	runtime.KeepAlive(ix) //kdash:allow(hotalloc) boxing a pointer allocates nothing
	return v
}
