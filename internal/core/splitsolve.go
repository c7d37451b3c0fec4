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
// bit Solve's y[u] on the same right-hand side. u must not be a ghost
// row (see Solve), whose value L^{-1} does not keep; the callers that
// take rows from outside (Proximity, the worker surface) refuse one.
//
//kdash:noalloc
//kdash:deterministic
func (ix *Index) UpperDot(u int, w *lu.Workspace) float64 {
	v := ix.inv.UpperRowDot(int(ix.perm[u]), w.W)
	runtime.KeepAlive(ix) //kdash:allow(hotalloc) boxing a pointer allocates nothing
	return v
}

// Solve computes y = W^{-1} r through the inverted factors, where
// W = I - (1-c)A is the matrix the index factorized: the one dense
// reference the split solve (SolveLower, UpperDot) is tested against,
// bit for bit, here and in internal/shard; no query calls it. Input and output are dense vectors in original node-id
// order; zero entries of r cost nothing in the L^{-1} pass, and the
// restart factor c is not applied. On a block index with a ghost row (a
// sharded index's sink, which L^{-1} does not keep), that row's output
// is not the solution's: it misses L^{-1}'s row, as UpperDot's does.
//
//kdash:testonly
func (ix *Index) Solve(r []float64) ([]float64, error) {
	if len(r) != ix.n {
		return nil, fmt.Errorf("core: Solve rhs has %d entries, index has %d nodes", len(r), ix.n)
	}
	// w = L^{-1} (P r), accumulated column by column over nonzero rhs
	// entries in ascending node order.
	nodes := make([]int, ix.n)
	for u := range nodes {
		nodes[u] = u
	}
	w := ix.inv.NewWorkspace()
	ix.inv.SolveLower(w, nodes, r, ix.perm)
	// y = P^T (U^{-1} w).
	out := make([]float64, ix.n)
	for u, p := range ix.perm {
		out[u] = ix.inv.UpperRowDot(int(p), w.W)
	}
	return out, nil
}
