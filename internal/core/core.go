// Package core implements K-dash, the paper's contribution: exact top-k
// search for Random Walk with Restart proximity.
//
// An Index holds the precomputed state of Section 4.2 — the node
// reordering, the sparse inverse triangular factors L^{-1} (by column) and
// U^{-1} (by row) of W = I - (1-c)A, and (monolithic builds) A with the
// Amax tables derived from it on first use — and serves
// queries with the Section 4.3/4.4 search: a breadth-first tree from the
// query node, O(1) incremental upper-bound estimation (Definitions 1–2),
// and safe early termination (Lemmas 1–2, Theorem 2).
//
// An Index is immutable after construction and safe for concurrent
// queries; all per-query scratch lives in pooled workspaces, so the
// steady-state query path allocates only its O(k) result set and never
// writes a factor array. That write-free contract is what lets Save lay
// the arrays out as page-aligned sections (serialize_v3.go) and
// OpenIndexFile serve queries straight out of sealed read-only memory.
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
	"sort"
	"sync"
	"time"

	"kdash/internal/graph"
	"kdash/internal/louvain"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/obs"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/sparse"
	"kdash/internal/topk"
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
	// breaks the exactness guarantee and exists only for the ablation
	// study; leave zero for exact search.
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

// Index is a prebuilt K-dash search structure. It is safe for concurrent
// queries: all fields are read-only after construction.
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
	a *sparse.CSC // reordered column-normalised adjacency; BuildIndex's only
	//kdash:readonly
	inv *lu.Inverse // L^{-1} by column and U^{-1} by row, in the compact id encoding

	// derived holds what a and perm fix and Save does not store, built
	// on first use: the inverse permutation, and Definition 2's tables
	// when the index holds a. The sharded engine never builds it.
	derivedOnce sync.Once
	derived     *derivedTables

	// swPool recycles tree-search workspaces across queries, so the
	// steady-state query path performs no O(n) allocation. It is a
	// concurrency-safe checkout: every request takes a private instance
	// and returns it when done.
	swPool sync.Pool

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
	// rebuild orders by them without running Louvain; nil for a
	// monolithic index.
	comm  []int32
	commK int
	commQ float64
}

// derivedTables are an index's tables derived from its adjacency and
// permutation, with the build's own functions, so a loaded index derives
// them bit for bit as its build did.
type derivedTables struct {
	inv    []int  // internal -> original
	bounds Bounds // Definition 2's tables, over internal ids
}

// tables returns the derived tables, built once.
func (ix *Index) tables() *derivedTables {
	ix.derivedOnce.Do(func() {
		perm := make([]int, len(ix.perm))
		for i, p := range ix.perm {
			perm[i] = int(p)
		}
		ix.derived = &derivedTables{inv: reorder.Invert(perm)}
		if ix.a != nil {
			ix.derived.bounds = adjacencyBounds(ix.a, ix.c)
		}
	})
	return ix.derived
}

// BuildIndex precomputes a K-dash index for the graph, the one index
// that keeps A for its search. Same graph and options, same index, bit
// for bit.
//
//kdash:mutates-factors
func BuildIndex(g *graph.Graph, opt BuildOptions) (*Index, error) {
	ix, _, err := BuildBlock(g, opt, reorder.Block{Owned: g.N()}, nil, nil)
	if ix != nil {
		ix.a = ix.Adjacency(g)
		ix.comm, ix.commK, ix.commQ = nil, 0, 0 // only a block rebuild reuses them
	}
	return ix, err
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
// index has none (a monolithic index, or an ordering without Louvain).
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

// Searchable reports whether the index holds the A its own search walks:
// a BuildIndex result does, a block or a loaded shard file does not.
func (ix *Index) Searchable() bool { return ix.a != nil }

var errNotSearchable = errors.New("core: the index holds no adjacency (a shard block); search it through its sharded index")

// Restart reports the restart probability c the index was built with.
func (ix *Index) Restart() float64 { return ix.c }

// Stats reports precomputation statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// SearchStats reports per-query work, the quantities behind Figures 7
// and 9.
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
	// RootSeed picks the random root deterministically.
	RootSeed int64
	// Exclude removes nodes (original ids) from the answer set without
	// affecting the proximity computation — the common "recommend items
	// the user has not already consumed" filter. Excluded nodes still
	// participate in the estimation (they may carry proximity mass); they
	// are only barred from the top-k heap.
	Exclude map[int]bool
	// Ctx, Trace and SolvedShards are read only by the sharded engine
	// (shard.ShardedIndex); Index.Search ignores them.
	//
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

// TopK returns the K nodes with the highest RWR proximity w.r.t. query
// node q, exactly (Theorem 2). Results use original node ids and are
// sorted by descending proximity. If fewer than K nodes are reachable
// from q, only the reachable ones are returned: every other node has
// proximity exactly zero.
func (ix *Index) TopK(q, k int) ([]topk.Result, SearchStats, error) {
	return ix.Search(q, SearchOptions{K: k})
}

// searchWS is the per-query scratch a tree search needs. Pooled
// instances are reused across queries so a large index does not pay two
// O(n) allocations (plus their zeroing) per query: the proximity
// workspace is spot-cleaned after each query and the BFS state is
// invalidated by bumping the generation counter instead of rewriting the
// arrays.
type searchWS struct {
	w    *lu.Workspace // L^{-1} r, spot-cleaned by its support list
	tree *TreeWS
}

func (ix *Index) newSearchWS() *searchWS {
	return &searchWS{w: ix.inv.NewWorkspace(), tree: NewTreeWS(ix.n)}
}

// getSearchWS checks a clean search workspace out of the pool (queries
// leave their workspace spot-cleaned, so pooled instances are reusable
// as-is); putSearchWS returns it.
//
//kdash:pooled
func (ix *Index) getSearchWS() *searchWS {
	if sw, ok := ix.swPool.Get().(*searchWS); ok {
		return sw
	}
	return ix.newSearchWS()
}

//kdash:release
func (ix *Index) putSearchWS(sw *searchWS) { ix.swPool.Put(sw) }

// Search runs a query with full control over the search strategy. The
// workspace comes from a per-index pool, so a steady-state query
// allocates only its result set.
func (ix *Index) Search(q int, opt SearchOptions) ([]topk.Result, SearchStats, error) {
	sw := ix.getSearchWS()
	results, stats, err := ix.search(q, opt, sw)
	ix.putSearchWS(sw)
	return results, stats, err
}

// search runs one query against a caller-supplied workspace, leaving the
// workspace clean for the next query.
//
//kdash:deterministic
func (ix *Index) search(q int, opt SearchOptions, sw *searchWS) ([]topk.Result, SearchStats, error) {
	var stats SearchStats
	if q < 0 || q >= ix.n {
		return nil, stats, fmt.Errorf("core: query node %d outside [0,%d)", q, ix.n)
	}
	if opt.K <= 0 {
		return nil, stats, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	if ix.a == nil {
		return nil, stats, errNotSearchable
	}
	qi := int(ix.perm[q]) // internal id

	// L^{-1} e_q scattered into a dense workspace for O(1) lookups while
	// walking rows of U^{-1}.
	ix.inv.SolveLower(sw.w, []int{q}, []float64{1}, ix.perm)

	heap := topk.New(opt.K)
	excluded := ix.internalExclusions(opt.Exclude)

	if opt.RandomRoot {
		ix.searchRandomRoot(qi, heap, sw.w.W, opt, excluded, &stats)
	} else {
		ix.searchTree([]int{qi}, heap, sw, !opt.DisablePruning, excluded, &stats)
	}

	// Spot-clean the scattered column so the workspace is reusable.
	sw.w.Reset()

	results := heap.Results()
	inv := ix.tables().inv
	for i := range results {
		results[i].Node = inv[results[i].Node]
	}
	return results, stats, nil
}

// internalExclusions converts an original-id exclusion set to internal
// ids; out-of-range entries are ignored (excluding a nonexistent node is
// harmless).
func (ix *Index) internalExclusions(exclude map[int]bool) map[int]bool {
	if len(exclude) == 0 {
		return nil
	}
	out := make(map[int]bool, len(exclude))
	for node, on := range exclude { //kdash:allow(determinism) set-to-set translation: membership only, order never reaches a float
		if on && node >= 0 && node < ix.n {
			out[int(ix.perm[node])] = true
		}
	}
	return out
}

// TopKPersonalized generalises TopK to a restart *distribution*: the walk
// restarts into the given seed nodes with probability proportional to
// their weights. This is Personalized PageRank in the sense of the
// paper's footnote 6 (RWR restarts to one node; PPR to a start set). The
// same factor identity applies — p = c U^{-1} L^{-1} r with r the
// normalised seed vector — and the tree estimation stays a valid upper
// bound because a multi-source BFS preserves the layer property Lemmas
// 1–2 rely on (every in-neighbour of a layer-l node sits on layer >=
// l-1). Results are exact, as in the single-seed case.
//
// Validation, the normalising sum and the workspace accumulation all
// iterate the seed nodes in ascending order: both sums are float
// accumulations, where map iteration order would drift bits between runs.
//
//kdash:deterministic
func (ix *Index) TopKPersonalized(seeds map[int]float64, k int) ([]topk.Result, SearchStats, error) {
	var stats SearchStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("core: K must be positive, got %d", k)
	}
	if len(seeds) == 0 {
		return nil, stats, fmt.Errorf("core: empty seed set")
	}
	if ix.a == nil {
		return nil, stats, errNotSearchable
	}
	nodes := make([]int, 0, len(seeds))
	for node := range seeds { //kdash:allow(determinism) keys only: sorted below, before any mass is accumulated
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	total := 0.0
	for _, node := range nodes {
		w := seeds[node]
		if node < 0 || node >= ix.n {
			return nil, stats, fmt.Errorf("core: seed node %d outside [0,%d)", node, ix.n)
		}
		if w <= 0 {
			return nil, stats, fmt.Errorf("core: seed node %d has non-positive weight %v", node, w)
		}
		total += w
	}
	// The seeds in ascending internal id, the deterministic visit and
	// accumulation order, with their normalised weights.
	sort.Slice(nodes, func(a, b int) bool { return ix.perm[nodes[a]] < ix.perm[nodes[b]] })
	internal := make([]int, len(nodes))
	weight := make([]float64, len(nodes))
	for t, node := range nodes {
		internal[t] = int(ix.perm[node])
		weight[t] = seeds[node] / total
	}
	// Accumulate L^{-1} r into a pooled workspace, spot-cleaned
	// afterwards so the workspace goes back clean.
	sw := ix.getSearchWS()
	ix.inv.SolveLower(sw.w, nodes, weight, ix.perm)
	heap := topk.New(k)
	ix.searchTree(internal, heap, sw, true, nil, &stats)
	sw.w.Reset()
	ix.putSearchWS(sw)
	results := heap.Results()
	inv := ix.tables().inv
	for i := range results {
		results[i].Node = inv[results[i].Node]
	}
	return results, stats, nil
}

// bfs runs breadth-first search over the reordered adjacency structure
// (out-edges of v are the rows of column v of A).
func (ix *Index) bfs(root int) (order []int, layer []int) {
	layer = make([]int, ix.n)
	for i := range layer {
		layer[i] = -1
	}
	order = make([]int, 0, ix.n)
	layer[root] = 0
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for i := ix.a.ColPtr[v]; i < ix.a.ColPtr[v+1]; i++ {
			u := int(ix.a.RowIdx[i])
			if layer[u] < 0 {
				layer[u] = layer[v] + 1
				order = append(order, u)
			}
		}
	}
	return order, layer
}

// proximity computes p_u = c * (U^{-1} row u) . (L^{-1} e_q) with the
// latter pre-scattered in ws.
//
//kdash:noalloc
func (ix *Index) proximity(u int, ws []float64) float64 {
	return ix.c * ix.inv.UpperRowDot(u, ws)
}

// searchTree runs Algorithm 4 (SearchTree) over the reordered adjacency
// — out-edges of v are the rows of column v of A — scoring nodes with
// exact proximities against the L^{-1} column(s) pre-scattered in sw.ws.
// Roots are internal ids, sorted ascending.
func (ix *Index) searchTree(roots []int, heap *topk.Heap, sw *searchWS, prune bool, excluded map[int]bool, stats *SearchStats) {
	score := func(u int) float64 { return ix.proximity(u, sw.w.W) }
	SearchTree(sw.tree, &ix.tables().bounds, ix.a.ColPtr, ix.a.RowIdx, roots, score, heap, excluded, prune, stats)
}

// searchRandomRoot visits nodes in BFS order from an arbitrary root (then
// any nodes unreachable from it), using the layer-free upper bound
//
//	p̄_u = c' * ( Σ_{v∈Vs} p_v Amax(v) + (1 - Σ_{v∈Vs} p_v) Amax )
//
// which is sound for any visit order (the first sum bounds contributions
// of selected in-neighbours, the second everything else). Early
// termination is impossible — only per-node skipping — which is exactly
// why Figure 9 shows the random root needing far more proximity
// computations.
func (ix *Index) searchRandomRoot(qi int, heap *topk.Heap, ws []float64, opt SearchOptions, excluded map[int]bool, stats *SearchStats) {
	root := int((opt.RootSeed%int64(ix.n) + int64(ix.n)) % int64(ix.n))
	order, layer := ix.bfs(root)
	// Append nodes unreachable from the random root so no potential
	// answer is missed.
	for u := 0; u < ix.n; u++ {
		if layer[u] < 0 {
			order = append(order, u)
		}
	}
	b := &ix.tables().bounds
	var sumPA float64 // Σ p_v * Amax(v) over selected nodes
	var sumP float64  // Σ p_v over selected nodes
	for _, u := range order {
		stats.Visited++
		var est float64
		if u == qi {
			est = 1
		} else {
			rem := 1 - sumP
			if rem < 0 {
				rem = 0
			}
			est = b.cPrime(u) * (sumPA + rem*b.amax)
		}
		if !opt.DisablePruning && heap.Len() == heap.K() && est < heap.Threshold() {
			continue // skip this node only; no global termination
		}
		p := ix.proximity(u, ws)
		stats.ProximityComputations++
		if !excluded[u] {
			heap.Push(u, p)
		}
		sumPA += p * b.amaxCol[u]
		sumP += p
	}
}

// Solve computes y = W^{-1} r through the inverted factors, where
// W = I - (1-c)A is the matrix the index factorized. Input and output are
// dense vectors in original node-id order; zero entries of r cost nothing
// in the L^{-1} pass. Unlike the proximity methods, Solve does not apply
// the restart factor c. It is the dense reference the split solve
// (SolveLower, UpperDot) is tested against, bit for bit, and the whole
// solve ProximityVector reads. On a block index with a ghost row (a
// sharded index's sink, which L^{-1} does not keep), that row's output
// is not the solution's: it misses L^{-1}'s row, as UpperDot's does.
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
	inv := ix.tables().inv
	out := make([]float64, ix.n)
	for u := 0; u < ix.n; u++ {
		out[inv[u]] = ix.inv.UpperRowDot(u, w.W)
	}
	return out, nil
}

// ProximityVector computes the full exact proximity vector for q through
// the factors (Equation (3)): p = c U^{-1} L^{-1} e_q, that is c times
// Solve(e_q). Results are in original node-id order. A block index with
// a ghost row is refused: its vector would hold that row's wrong value.
func (ix *Index) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= ix.n {
		return nil, fmt.Errorf("core: query node %d outside [0,%d)", q, ix.n)
	}
	if kept := ix.inv.Linv.Rows; kept < ix.n {
		return nil, fmt.Errorf("core: proximity vector of a block index that solves %d of its %d rows", kept, ix.n)
	}
	e := make([]float64, ix.n)
	e[q] = 1
	out, err := ix.Solve(e)
	if err != nil {
		return nil, err
	}
	for u, v := range out {
		out[u] = ix.c * v
	}
	return out, nil
}

// Proximity computes the single exact proximity of node u w.r.t. query q
// through a pooled workspace: one L^{-1} column scatter, one U^{-1} row
// dot, no allocation. A ghost row u, which L^{-1} does not keep, is
// refused.
func (ix *Index) Proximity(q, u int) (float64, error) {
	if q < 0 || q >= ix.n || u < 0 || u >= ix.n {
		return 0, fmt.Errorf("core: node pair (%d,%d) outside [0,%d)", q, u, ix.n)
	}
	if int(ix.perm[u]) >= ix.inv.Linv.Rows {
		return 0, fmt.Errorf("core: node %d is a ghost row the index does not solve", u)
	}
	sw := ix.getSearchWS()
	ix.inv.SolveLower(sw.w, []int{q}, []float64{1}, ix.perm)
	p := ix.proximity(int(ix.perm[u]), sw.w.W)
	sw.w.Reset()
	ix.putSearchWS(sw)
	return p, nil
}
