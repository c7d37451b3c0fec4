// Package core implements the per-block index of K-dash, the paper's
// contribution: exact top-k search for Random Walk with Restart
// proximity.
//
// An Index holds the precomputed state of Section 4.2 for one block of a
// partitioned index (a whole graph is a one-block partition): the node
// reordering and the sparse inverse triangular factors L^{-1} (by
// column) and U^{-1} (by row) of W = I - (1-c)A. Its one solve is split
// (splitsolve.go): SolveLower runs the L^{-1} pass of a right-hand side
// and UpperDot completes one node's value of the solution, which is what
// the sharded index's cross-shard push runs. The Section 4.3/4.4 search
// — a breadth-first tree from the query node, O(1) incremental
// upper-bound estimation (Definitions 1–2) and safe early termination
// (Lemmas 1–2, Theorem 2) — is tree.go's, run by the sharded index over
// its graph snapshot.
//
// An Index is immutable after construction and safe for concurrent
// solves: per-query scratch lives in caller-owned workspaces, and no
// solve writes a factor array. That write-free contract is what lets
// Save lay the arrays out as page-aligned sections (serialize_v3.go) and
// OpenIndexFile serve solves straight out of sealed read-only memory.
// See docs/ARCHITECTURE.md for the layer map, the immutability and
// pooling contracts, and the on-disk format specifications.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"kdash/internal/graph"
	"kdash/internal/louvain"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/obs"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/sparse"
)

// BuildOptions configures index construction.
type BuildOptions struct {
	// Restart is the restart probability c. Zero selects the paper's
	// default 0.95.
	Restart float64
	// Reorder selects the node ordering used to keep the inverse factors
	// sparse. The zero value is reorder.Degree; callers should normally
	// use reorder.Hybrid, the paper's best performer.
	Reorder reorder.Method
	// Seed feeds Louvain and the Random ordering.
	Seed int64
	// DropTol, when positive, discards tiny inverse-factor entries. This
	// breaks the exactness guarantee and exists only for the
	// drop-tolerance ablation (internal/experiments); leave zero for
	// exact search.
	DropTol float64
	// Workers bounds goroutines used for factor inversion (0 = all CPUs).
	Workers int
}

// BuildStats reports precomputation cost, the quantities behind the
// paper's Figures 5 and 6.
type BuildStats struct {
	Method        reorder.Method
	ReorderTime   time.Duration
	FactorizeTime time.Duration
	InvertTime    time.Duration
	TotalTime     time.Duration
	NNZFactors    int // nnz(L) + nnz(U)
	NNZInverse    int // nnz(L^-1) + nnz(U^-1), Figure 5's numerator
	Edges         int // m, Figure 5's denominator
	InverseRatio  float64
	// Columns of L^-1 and U^-1 together (2n in all) that a block build
	// copied from its previous epoch, and that it solved.
	ColumnsReused int
	ColumnsSolved int
}

// Index is one block's prebuilt K-dash factors. It is safe for
// concurrent solves: all fields are read-only after construction.
type Index struct {
	n int
	c float64
	// The query structures below are written only during construction and
	// load (//kdash:mutates-factors functions): in a loaded index they
	// alias sealed PROT_READ memory, where a write is a segfault.
	//
	//kdash:readonly
	perm []int32 // original -> internal
	//kdash:readonly
	inv *lu.Inverse // L^{-1} by column and U^{-1} by row, in the compact id encoding

	stats BuildStats

	// dropTol is the build's BuildOptions.DropTol: BuildBlock reuses a
	// previous epoch's columns only from an index built with the same
	// tolerance.
	dropTol float64

	// backing is the sectioned container a loaded index's arrays live
	// in — a sealed off-heap copy for OpenIndexFile where the platform
	// maps memory, a Go buffer otherwise. nil for built indexes.
	// Off-heap arrays are immutable at the MMU level. Close releases them at once; otherwise
	// a cleanup releases them when the Index becomes unreachable.
	//
	// That cleanup rests on one invariant: no slice of the container
	// outlives the *Index that owns it. The container's slices sit only
	// in this Index's fields and in objects it owns — the lu.Inverse and
	// its two lu.Compact factors — and whatever holds one of those also
	// holds the Index. Workspaces and packed U^{-1} rows
	// hold no container slice: they are fresh Go memory. Methods whose
	// last use of the Index precedes a read through such an object keep
	// it alive with runtime.KeepAlive.
	backing *mmapio.File

	// The Louvain communities a block's ordering used (BuildBlock under
	// Cluster or Hybrid): one id per owned node, their count K and
	// modularity Q. Saved with the index, so a loaded shard's next
	// rebuild orders by them without running Louvain; nil when the
	// ordering ran no Louvain.
	comm  []int32
	commK int
	commQ float64
}

// BuildBlock builds the index of one block of a partitioned index: g is
// the block's graph, ordered by reorder.ComputeBlock with blk, and the
// Louvain result the ordering used comes back for the next epoch's
// blk.Communities; the block keeps no A. prev, when non-nil, is the
// block's index of the previous epoch, built over a graph whose out-rows
// prevG reads, with the same options (one of another size, restart
// probability or drop tolerance is ignored): a position-wise compare
// with its A (Adjacency) marks the changed columns of W, and every
// inverse column whose solve reads no factor column those reach is
// copied from prev (see lu.Refactorize).
// The index is bit for bit the one BuildBlock makes with a nil prev —
// the sharded update path rebuilds dirty blocks through here and
// promises the result of a fresh build.
//
//kdash:mutates-factors
//kdash:deterministic
func BuildBlock(g *graph.Graph, opt BuildOptions, blk reorder.Block, prev *Index, prevG Rows) (*Index, *louvain.Result, error) {
	if g.N() == 0 {
		return nil, nil, fmt.Errorf("core: cannot index an empty graph")
	}
	c := opt.Restart
	if c == 0 {
		c = rwr.DefaultRestart
	}
	if c <= 0 || c >= 1 {
		return nil, nil, fmt.Errorf("core: restart probability %v outside (0,1)", c)
	}
	start := time.Now() //kdash:allow(determinism) stage timers here and below feed BuildStats only; nothing the build computes reads them
	perm, communities := reorder.ComputeBlock(g, opt.Reorder, opt.Seed, blk)
	reorderTime := time.Since(start) //kdash:allow(determinism) BuildStats stage timer

	a := g.PermutedColumnNormalized(perm)

	tFac := time.Now() //kdash:allow(determinism) BuildStats stage timer
	var changed []bool
	var prevInv *lu.Inverse
	sizeHint := 0
	if prev != nil && prevG != nil && prev.n == g.N() && prevG.N() == g.N() {
		// The previous factors' size, which a small change barely moves,
		// sizes the new ones. A loaded index's count is an unchecked
		// stat, so it is capped by the previous inverse's real size,
		// which bounds it: L and U lie within the patterns of their
		// inverses, L^{-1}'s unstored ghost row included, and that row
		// holds at most n entries.
		sizeHint = min(prev.stats.NNZFactors, prev.inv.NNZ()+prev.n)
		if prev.c == c && prev.dropTol == opt.DropTol {
			changed = prev.changedColumns(a, prevG)
			prevInv = prev.inv
		}
	}
	fac, err := lu.RefactorizeW(a, c, changed, sizeHint)
	if err != nil {
		return nil, nil, fmt.Errorf("core: factorizing W: %w", err)
	}
	facTime := time.Since(tFac) //kdash:allow(determinism) BuildStats stage timer, and the next line's
	tInv := time.Now()
	inverse, err := fac.Invert(keptRows(perm, blk.Owned), lu.Options{DropTol: opt.DropTol, Workers: opt.Workers, Prev: prevInv})
	if err != nil {
		return nil, nil, fmt.Errorf("core: inverting the factors: %w", err)
	}
	invTime := time.Since(tInv) //kdash:allow(determinism) BuildStats stage timer
	// The copied columns were read from prev's arrays.
	runtime.KeepAlive(prev)

	n := g.N()
	ix := &Index{
		n:       n,
		c:       c,
		dropTol: opt.DropTol,
		perm:    make([]int32, n),
		inv:     inverse,
	}
	for u, p := range perm {
		ix.perm[u] = int32(p)
	}
	ix.stats = BuildStats{
		Method:        opt.Reorder,
		ReorderTime:   reorderTime,
		FactorizeTime: facTime,
		InvertTime:    invTime,
		TotalTime:     time.Since(start), //kdash:allow(determinism) BuildStats stage timer
		NNZFactors:    fac.NNZL() + fac.NNZU(),
		NNZInverse:    inverse.NNZ(),
		Edges:         g.M(),
		ColumnsReused: inverse.Reused,
		ColumnsSolved: 2*n - inverse.Reused,
	}
	if g.M() > 0 {
		ix.stats.InverseRatio = float64(ix.stats.NNZInverse) / float64(g.M())
	}
	if communities != nil {
		ix.comm = make([]int32, len(communities.Community))
		for u, c := range communities.Community {
			ix.comm[u] = int32(c)
		}
		ix.commK, ix.commQ = communities.K, communities.Q
	}
	trackHeap(ix, ix.arrayBytes())
	return ix, communities, nil
}

// keptRows returns how many leading internal rows L^{-1} keeps for a
// block whose first owned nodes are its own, ordered by perm (original
// -> internal): up to the last owned node's row, so only a trailing run
// of ghost rows goes. Cluster and Hybrid put a block's sink last, so
// its row goes; an ordering that puts it elsewhere keeps every row.
func keptRows(perm []int, owned int) int {
	kept := 0
	for _, p := range perm[:owned] {
		kept = max(kept, p+1)
	}
	return kept
}

// Rows is a graph's out-rows as a block rebuild reads its parent's: a
// *graph.Graph is one, and a sharded index reads a parent block's rows
// in place from the parent epoch's whole graph.
type Rows interface {
	N() int
	// OutNeighbors calls fn on v's out-edges in row order, targets
	// ascending.
	OutNeighbors(v int, fn func(to int, w float64))
	// OutWeightSum sums v's out-weights in row order.
	OutWeightSum(v int) float64
}

// Adjacency re-forms, bit for bit, the A the index factorized from g,
// the graph it was built over: how a rebuild compares with a block.
//
//kdash:testonly
func (ix *Index) Adjacency(g *graph.Graph) *sparse.CSC {
	perm := make([]int, ix.n)
	for u, p := range ix.perm {
		perm[u] = int(p)
	}
	return g.PermutedColumnNormalized(perm)
}

// changedColumns reports, per column, whether a differs in its pattern
// or in any value's bits from the A the index factorized from g, the
// graph it was built over, whose rows g reads —
// a.ChangedColumns(ix.Adjacency(g)) without re-forming that A: its
// column perm[v] is v's out-edges, each target renamed by perm and each
// weight divided by v's out-weight sum, rows ascending, as
// PermutedColumnNormalized lays it down.
func (ix *Index) changedColumns(a *sparse.CSC, g Rows) []bool {
	out := make([]bool, ix.n)
	type entry struct {
		row int32
		val float64
	}
	var col []entry
	var total float64
	add := func(u int, w float64) { col = append(col, entry{ix.perm[u], w / total}) }
	for v := 0; v < ix.n; v++ {
		col = col[:0]
		if total = g.OutWeightSum(v); total > 0 {
			g.OutNeighbors(v, add)
		}
		slices.SortFunc(col, func(x, y entry) int { return cmp.Compare(x.row, y.row) })
		c := int(ix.perm[v])
		lo, hi := a.ColPtr[c], a.ColPtr[c+1]
		if hi-lo != len(col) {
			out[c] = true
			continue
		}
		for k, e := range col {
			if a.RowIdx[lo+k] != e.row || math.Float64bits(a.Val[lo+k]) != math.Float64bits(e.val) {
				out[c] = true
				break
			}
		}
	}
	return out
}

// Communities returns the Louvain communities the block's ordering
// used, for the next epoch's reorder.Block.Communities, or nil when the
// index has none (an ordering without Louvain).
// Each call returns a fresh copy.
func (ix *Index) Communities() *louvain.Result {
	if ix.comm == nil {
		return nil
	}
	res := &louvain.Result{Community: make([]int, len(ix.comm)), K: ix.commK, Q: ix.commQ}
	for u, c := range ix.comm {
		res.Community[u] = int(c)
	}
	return res
}

// CommunityNodes reports how many nodes the saved communities cover:
// the block's owned nodes, or 0 when it has none.
func (ix *Index) CommunityNodes() int { return len(ix.comm) }

// N reports the number of indexed nodes.
func (ix *Index) N() int { return ix.n }

// Restart reports the restart probability c the index was built with.
func (ix *Index) Restart() float64 { return ix.c }

// Stats reports precomputation statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// SearchStats reports per-query work, the quantities behind Figures 7
// and 9. The tree search (TreeWS.Search, SearchAnyRoot) counts its own
// visit, as the fields say. A sharded query (shard.ShardedIndex.Search
// and TopKPersonalized, and so kdash.Index) reports its push and rank
// instead: Visited and ProximityComputations both count its U^{-1} row
// dots — cut rows the push evaluated plus nodes the rank scored — and
// Terminated says the push left a shard with pending inflow unsolved,
// which a one-shard index never does.
type SearchStats struct {
	Visited               int  // nodes whose estimate was evaluated
	ProximityComputations int  // exact proximities computed via the factors
	Terminated            bool // whether pruning stopped the search early
}

// SearchOptions configures a single query.
type SearchOptions struct {
	K int
	// DisablePruning computes the exact proximity of every reachable node
	// (the "Without pruning" series of Figure 7).
	DisablePruning bool
	// RandomRoot roots the visit order at an arbitrary node instead of
	// the query (the "Random" series of Figure 9). Estimates fall back to
	// a layer-free upper bound, so per-node skipping still never discards
	// an answer, but early termination is impossible.
	RandomRoot bool
	// RootSeed picks the random root deterministically: node RootSeed
	// mod n.
	RootSeed int64
	// Exclude removes nodes (original ids) from the answer set without
	// affecting the proximity computation — the common "recommend items
	// the user has not already consumed" filter. Excluded nodes still
	// participate in the estimation (they may carry proximity mass); they
	// are only barred from the top-k heap.
	Exclude map[int]bool
	// Ctx, when non-nil, cancels the query: the engine checks it between
	// shard solves, never per node, and abandons the solve with the
	// context's error. A nil Ctx is never checked — the hot path pays
	// one branch.
	Ctx context.Context
	// Trace, when non-nil, records the query's execution structure
	// (shard solve schedule, residual-bound trajectory, per-phase wall
	// clock) into the pointed-to recorder. The caller owns the
	// instance; the engine only appends. Nil disables all recording and
	// all timing syscalls.
	Trace *obs.QueryTrace
	// SolvedShards, when non-nil, receives (appended, ascending) the ids
	// of the shards the push solved — everything the answer depends on,
	// which is what lets the server's cache keep an entry across an
	// update that dirtied other shards. Caller-owned like Trace.
	SolvedShards *[]int
}

// ErrUnavailable reports a query abandoned because index data it needs
// could not be read — a lazily opened shard file or graph snapshot that
// failed to load mid-query. No partial answer is returned; servers map
// it to 503 + Retry-After.
var ErrUnavailable = errors.New("index data unavailable")
