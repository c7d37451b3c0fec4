package core

// Single-lane sparse solver: the index's one solve kernel. It folds the
// node permutation around lu.SparseSolver's support-tracked kernel, so a
// solve whose right-hand side reaches a fraction of the factors costs a
// proportional fraction to run — no O(n) allocation, zeroing or sweeping
// per call. This is the kernel the sharded cross-shard push bottoms out
// in for every query, single or batched.

import (
	"fmt"

	"kdash/internal/lu"
)

// SparseSolver runs repeated single right-hand-side solves against one
// index, recycling all workspaces across calls. Not safe for concurrent
// use; Index pools instances (see ProximityVector) and internal/shard
// checks one out per query.
type SparseSolver struct {
	ix   *Index
	ls   *lu.SparseSolver
	iidx []int // internal-id right-hand side, mapped per call
}

// NewSparseSolver returns a reusable single-lane solver for the index.
func (ix *Index) NewSparseSolver() *SparseSolver {
	return &SparseSolver{ix: ix, ls: ix.inverseFactors().NewSparseSolver()}
}

// getSparseSolver checks a solver out of the per-index pool;
// putSparseSolver returns it. Pooled solvers retain their workspaces, so
// a steady-state checkout allocates nothing.
//
//kdash:pooled
func (ix *Index) getSparseSolver() *SparseSolver {
	if s, ok := ix.sparsePool.Get().(*SparseSolver); ok {
		return s
	}
	return ix.NewSparseSolver()
}

//kdash:release
func (ix *Index) putSparseSolver(s *SparseSolver) { ix.sparsePool.Put(s) }

// SolveSparse computes y = W^{-1} r exactly like Index.Solve, with the
// right-hand side given sparsely as parallel (idx, val) slices over
// original node ids, idx strictly ascending. It returns the solution in
// original node-id order plus its support: the rows written by this
// call, unordered. Rows outside the support hold stale values from
// earlier calls — not zeros — so callers must restrict reads to the
// support. A nil support means every row was written. Both slices are
// valid only until the next call. Values are bit-identical to
// Index.Solve on the equivalent dense right-hand side.
//
//kdash:noalloc
//kdash:deterministic
func (s *SparseSolver) SolveSparse(idx []int, val []float64) ([]float64, []int, error) {
	iidx, err := s.internalRHS(idx, val)
	if err != nil {
		return nil, nil, err
	}
	// The lu solver carries ix.inv as its baked Remap, so y and sup are
	// already in original node-id order — no per-support mapping pass.
	y, sup := s.ls.Solve(iidx, val)
	return y, sup, nil
}

// SolveLower runs only SolveSparse's L^{-1} pass, accumulating it into w
// (from NewWorkspace): the first half of a solve whose caller reads a
// few rows of the solution, one UpperDot each, instead of applying all
// of U^{-1}.
//
//kdash:noalloc
//kdash:deterministic
func (s *SparseSolver) SolveLower(idx []int, val []float64, w *lu.Workspace) error {
	iidx, err := s.internalRHS(idx, val)
	if err != nil {
		return err
	}
	s.ix.inverseFactors().SolveLower(w, iidx, val)
	return nil
}

// ApplyUpper is SolveSparse's second half: the whole solution whose
// L^{-1} pass w holds, under SolveSparse's contract and bit for bit its
// output on the same right-hand side.
func (s *SparseSolver) ApplyUpper(w *lu.Workspace) ([]float64, []int) { return s.ls.ApplyUpper(w) }

// internalRHS validates a sparse right-hand side and maps it to internal
// ids in caller order — ascending original ids, the accumulation order
// Solve's dense scan uses.
//
//kdash:noalloc
func (s *SparseSolver) internalRHS(idx []int, val []float64) ([]int, error) {
	ix := s.ix
	if len(idx) != len(val) {
		return nil, fmt.Errorf("core: sparse rhs has %d indices but %d values", len(idx), len(val)) //kdash:allow(hotalloc) error construction only on invalid input, off the steady-state path
	}
	iidx := s.iidx[:0]
	prev := -1
	for _, u := range idx {
		if u < 0 || u >= ix.n {
			return nil, fmt.Errorf("core: sparse rhs node %d outside [0,%d)", u, ix.n) //kdash:allow(hotalloc) error construction only on invalid input
		}
		if u <= prev {
			return nil, fmt.Errorf("core: sparse rhs indices must be strictly ascending (%d after %d)", u, prev) //kdash:allow(hotalloc) error construction only on invalid input
		}
		prev = u
		iidx = append(iidx, ix.perm[u])
	}
	s.iidx = iidx
	return iidx, nil
}

// NewWorkspace returns an empty L^{-1} workspace for SolveLower.
func (ix *Index) NewWorkspace() *lu.Workspace { return ix.inverseFactors().NewWorkspace() }

// UpperDot completes one row of a split solve: node u's value of the
// solution whose L^{-1} pass w holds, as one U^{-1} row dot. It is bit
// for bit SolveSparse's y[u] on the same right-hand side, and exactly
// zero where u is outside that solve's support.
//
//kdash:noalloc
//kdash:deterministic
func (ix *Index) UpperDot(u int, w *lu.Workspace) float64 {
	return ix.inverseFactors().UpperRowDot(ix.perm[u], w.W)
}
