package shard

// Distributed-serving seam. In coordinator mode the greedy cross-shard
// push — residual bookkeeping, commit order, cut-edge scatter — and the
// rank run unchanged in the coordinator process, and only the pure
// per-shard factor solves are routed through a RemoteSolver to the
// workers owning the shards. A worker returns the whole solution; the
// coordinator reads it at the same cut rows, in the same order, that an
// in-process solve completes with U^{-1} row dots, and the rank reads
// the accumulated solutions where the in-process rank sums row dots.
// Because a factor solve is a pure function of (shard, right-hand side),
// a row dot reproduces the full apply's value at its row bit for bit,
// and the wire carries raw float64 bits, the distributed query computes
// exactly the bytes the single-process one would have: the exactness
// argument is "same inputs, same function, same order", not "close
// enough". The worker side of the seam is SolveShardSparse below, which
// runs the solve against real factors and returns caller-owned copies
// safe to serialize after the pooled solver has moved on.

import (
	"fmt"
	"sync"

	"kdash/internal/core"
)

// RemoteSolver routes per-shard factor solves to remote workers. An
// implementation must be safe for concurrent calls (concurrent queries
// share it), must not retain idx or val after returning, and must return
// results that stay valid indefinitely (freshly allocated, not pooled).
// SolveSparse returns the solution over a partLen-sized vector — zero
// outside the solve's support — plus the solver's first-touch support
// (nil for a dense solve), like core.SparseSolver.
type RemoteSolver interface {
	SolveSparse(si int, idx []int, val []float64) (y []float64, ysup []int, err error)
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

// remotePools lazily sizes the per-part solver pools backing the worker
// RPC surface.
func (sx *ShardedIndex) remotePools() {
	sx.rpoolOnce.Do(func() { sx.rsparse = make([]sync.Pool, len(sx.parts)) })
}

// remoteSparseSolver checks a single-lane solver for shard si (whose
// index is ix) out of the worker-surface pool, creating one on first
// use.
//
//kdash:pooled
func (sx *ShardedIndex) remoteSparseSolver(si int, ix *core.Index) *core.SparseSolver {
	if sl, ok := sx.rsparse[si].Get().(*core.SparseSolver); ok {
		return sl
	}
	return ix.NewSparseSolver()
}

// SolveShardSparse is the worker side of RemoteSolver.SolveSparse: one
// single-lane solve against shard si's real factors through a pooled
// solver. The returned slices are caller-owned copies — for a sparse
// solve y is a fresh partLen-sized vector written only on the support
// (rows outside it are zero, and by the SolveSparse contract never
// read), for a dense solve ysup is nil and all of y is meaningful. Safe
// for concurrent calls.
func (sx *ShardedIndex) SolveShardSparse(si int, idx []int, val []float64) ([]float64, []int, error) {
	if si < 0 || si >= len(sx.parts) {
		return nil, nil, fmt.Errorf("shard: solve shard %d outside [0,%d)", si, len(sx.parts))
	}
	ix, err := sx.parts[si].index() // opens a lazily loaded shard, or fails
	if err != nil {
		return nil, nil, err
	}
	sx.remotePools()
	sl := sx.remoteSparseSolver(si, ix)
	y, ysup, err := sl.SolveSparse(idx, val)
	if err != nil {
		sx.rsparse[si].Put(sl)
		return nil, nil, err
	}
	n := sx.partLen(si)
	var yc []float64
	var supc []int
	if ysup == nil {
		yc = append(make([]float64, 0, n), y[:n]...)
	} else {
		yc = make([]float64, n)
		supc = append(make([]int, 0, len(ysup)), ysup...)
		for _, lv := range ysup {
			yc[lv] = y[lv]
		}
	}
	sx.rsparse[si].Put(sl)
	return yc, supc, nil
}
