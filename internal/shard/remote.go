package shard

// Distributed-serving seam. In coordinator mode the greedy cross-shard
// push — residual bookkeeping, commit order, cut-edge scatter — and the
// rank run unchanged in the coordinator process, and only the per-shard
// factor solves are routed through a RemoteSolver to the workers owning
// the shards. A remote solve names the rows it needs: a push solve asks
// for the solved shard's cut-owning rows (what the scatter reads) plus
// the rank prefix's rows in that shard (what the rank will read), and
// the worker answers with one U^{-1} row dot per row — the very calls,
// on the very workspace bits, an in-process push and rank make. A rank
// that walks past the prefix fetches the missing rows by replaying the
// shard's recorded right-hand sides (see state.go). Because a row dot is
// a pure function of (shard, right-hand side, row) and the wire carries
// raw float64 bits, the distributed query computes exactly the bytes the
// single-process one would have: the exactness argument is "same
// inputs, same function, same order", not "close enough". The worker
// side of the seam is SolveShardRows below.

import (
	"fmt"
	"sync"

	"kdash/internal/core"
	"kdash/internal/lu"
)

// RemoteSolver routes per-shard factor solves to remote workers. An
// implementation must be safe for concurrent calls (concurrent queries
// share it) and must not retain its arguments after returning.
//
// SolveRows solves shard si once per right-hand side — rhs r is
// idx[ptr[r]:ptr[r+1]] with values val[ptr[r]:ptr[r+1]], local ids
// strictly ascending — and writes solve r's value at local row rows[i]
// to out[r*len(rows)+i], exactly ShardedIndex.SolveShardRows's output
// against the shard's real factors. It returns the worker's own elapsed
// time, which the trace reports beside the call's wall clock.
type RemoteSolver interface {
	SolveRows(si int, rows, ptr, idx []int, val, out []float64) (workerNS int64, err error)
}

// SetRemoteSolver routes every factor solve through r (nil restores
// local solving). Set it before serving queries; it is not carried
// across Apply — bind a fresh solver on each successor epoch.
func (sx *ShardedIndex) SetRemoteSolver(r RemoteSolver) { sx.remote = r }

// SetFactorless marks the index coordinator-side: shard rebuilds under
// Apply skip the factorization entirely (p.ix stays nil), keeping only
// the placement map, cut lists and graph snapshot the push bookkeeping
// needs. Only valid together with SetRemoteSolver on an index whose
// shard files were opened lazily — with factors absent, any local solve
// would fault.
func (sx *ShardedIndex) SetFactorless() { sx.factorless = true }

// PartLen reports shard si's solve dimension: owned nodes plus the
// ghost sink row when the shard has outgoing cut weight.
func (sx *ShardedIndex) PartLen(si int) int { return sx.partLen(si) }

// rowSolver is the worker surface's pooled per-shard scratch: a
// single-lane solver and one L^{-1} workspace, clean between calls.
type rowSolver struct {
	solver *core.SparseSolver
	w      *lu.Workspace
}

// getRowSolver checks shard si's scratch (whose index is ix) out of the
// worker-surface pool, creating one on first use.
//
//kdash:pooled
func (sx *ShardedIndex) getRowSolver(si int, ix *core.Index) *rowSolver {
	sx.rpoolOnce.Do(func() { sx.rpool = make([]sync.Pool, len(sx.parts)) })
	if rs, ok := sx.rpool[si].Get().(*rowSolver); ok {
		return rs
	}
	return &rowSolver{solver: ix.NewSparseSolver(), w: ix.NewWorkspace()}
}

// SolveShardRows is the worker side of RemoteSolver.SolveRows: for each
// right-hand side, the L^{-1} pass into a pooled workspace, one U^{-1}
// row dot per requested row into out (a cut row's from the part's
// packed copy, as in process), and a reset. Shard, rows, the
// right-hand side pointers and ids are all validated first, so hostile
// input is an error, never a fault. Safe for concurrent calls.
func (sx *ShardedIndex) SolveShardRows(si int, rows, ptr, idx []int, val, out []float64) error {
	if si < 0 || si >= len(sx.parts) {
		return fmt.Errorf("shard: solve shard %d outside [0,%d)", si, len(sx.parts))
	}
	n := sx.partLen(si)
	for _, lv := range rows {
		if lv < 0 || lv >= n {
			return fmt.Errorf("shard: solve row %d outside shard %d's [0,%d)", lv, si, n)
		}
	}
	if len(ptr) == 0 || len(idx) != len(val) {
		return fmt.Errorf("shard: malformed right-hand sides (%d pointers, %d ids, %d values)", len(ptr), len(idx), len(val))
	}
	for r := 1; r < len(ptr); r++ {
		if ptr[r-1] < 0 || ptr[r] < ptr[r-1] || ptr[r] > len(idx) {
			return fmt.Errorf("shard: right-hand side %d spans [%d,%d) of %d entries", r-1, ptr[r-1], ptr[r], len(idx))
		}
	}
	if nrhs := len(ptr) - 1; len(out) != nrhs*len(rows) {
		return fmt.Errorf("shard: output holds %d values, want %d right-hand sides × %d rows", len(out), nrhs, len(rows))
	}
	p := sx.parts[si]
	ix, err := p.index() // opens a lazily loaded shard, or fails
	if err != nil {
		return err
	}
	cutUpper := p.cutRowsUpper(ix)
	rs := sx.getRowSolver(si, ix)
	defer sx.rpool[si].Put(rs)
	for r := 0; r+1 < len(ptr); r++ {
		lo, hi := ptr[r], ptr[r+1]
		err := rs.solver.SolveLower(idx[lo:hi], val[lo:hi], rs.w) // validates range and ascending order before writing
		if err == nil {
			// The push asks for its rows ascending: walk the cut rows
			// alongside and dot those from the packed copy. Any other
			// order only sends more rows through UpperDot, bit for bit
			// the same values.
			dst := out[r*len(rows) : (r+1)*len(rows)]
			k := 0
			for i, lv := range rows {
				for k < len(p.cutRows) && p.cutRows[k] < lv {
					k++
				}
				if k < len(p.cutRows) && p.cutRows[k] == lv {
					dst[i] = cutUpper.Dot(k, rs.w.W)
				} else {
					dst[i] = ix.UpperDot(lv, rs.w)
				}
			}
		}
		rs.w.Reset()
		if err != nil {
			return err
		}
	}
	return nil
}
