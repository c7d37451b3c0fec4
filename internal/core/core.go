// Package core implements K-dash, the paper's contribution: exact top-k
// search for Random Walk with Restart proximity.
//
// An Index holds the precomputed state of Section 4.2 — the node
// reordering, the sparse inverse triangular factors L^{-1} (by column) and
// U^{-1} (by row) of W = I - (1-c)A, and the Amax tables — and serves
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
	"context"
	"fmt"
	"runtime"
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
	perm []int // original -> internal
	//kdash:readonly
	inv []int // internal -> original

	//kdash:readonly
	a *sparse.CSC // reordered column-normalised adjacency
	//kdash:readonly
	linv *sparse.CSC // L^{-1}, by column
	//kdash:readonly
	uinv *sparse.CSR // U^{-1}, by row

	amax float64 // max element of A
	//kdash:readonly
	amaxCol []float64 // Amax(u): max element of column u of A
	//kdash:readonly
	selfA []float64 // A_uu, for the c' factor of Definition 1

	// invFac lazily rebinds the inverse factors as an lu.Inverse for the
	// single-lane sparse kernel (lu.SparseSolver), which owns the lazily
	// transposed U^{-1} (built on first support-driven apply; never
	// serialised — loads rebuild it on first use).
	invFacOnce sync.Once
	invFac     *lu.Inverse

	// swPool recycles tree-search workspaces and sparsePool single-lane
	// solvers across queries, so the steady-state query path performs no
	// O(n) allocation. Both are concurrency-safe checkouts: every request
	// takes a private instance and returns it when done.
	swPool     sync.Pool
	sparsePool sync.Pool

	stats BuildStats

	// srcGraph and opts are retained so the index can rebuild itself from
	// a graph delta (Rebuild); epoch counts rebuilds along the chain.
	// LoadIndex leaves srcGraph nil — the serialised form carries only the
	// query structures — which marks the index as non-updatable.
	srcGraph *graph.Graph
	opts     BuildOptions
	epoch    int

	// backing is the sectioned container a loaded index's arrays live
	// in — a sealed off-heap copy for OpenIndexFile where the platform
	// maps memory, a Go buffer otherwise. nil for built indexes.
	// Off-heap arrays are immutable at the MMU level. Close releases them at once; otherwise
	// a cleanup releases them when the Index becomes unreachable.
	//
	// That cleanup rests on one invariant: no slice of the container
	// outlives the *Index that owns it. The container's slices sit only
	// in this Index's fields and in objects it owns — the sparse.CSC and
	// CSR structs and the lu.Inverse built over them — and whatever holds
	// one of those also holds the Index: a SparseSolver keeps ix, the
	// pooled solvers live in the Index's own pools or, in internal/shard,
	// beside the Index in a push state. Methods whose last use of the
	// Index precedes a read through such an object keep it alive with
	// runtime.KeepAlive.
	backing *mmapio.File
}

// inverseFactors returns the index's factors as an lu.Inverse, built
// once. The internal-to-original permutation is the Remap, so the
// single-lane kernel's applies land directly in original node ids and
// its solutions need no per-support mapping pass.
func (ix *Index) inverseFactors() *lu.Inverse {
	ix.invFacOnce.Do(func() {
		ix.invFac = &lu.Inverse{N: ix.n, Linv: ix.linv, Uinv: ix.uinv, Remap: ix.inv}
	})
	return ix.invFac
}

// BuildIndex precomputes a K-dash index for the graph. Same graph and
// options, same index, bit for bit.
func BuildIndex(g *graph.Graph, opt BuildOptions) (*Index, error) {
	ix, _, err := BuildBlock(g, opt, reorder.Block{Owned: g.N()}, nil)
	return ix, err
}

// BuildBlock builds the index of one block of a partitioned index: g is
// the block's graph, ordered by reorder.ComputeBlock with blk, and the
// Louvain result the ordering used comes back for the next epoch's
// blk.Communities. prev, when non-nil, is the block's index of the
// previous epoch, built with the same options (one of another size,
// restart probability or drop tolerance is ignored): a position-wise
// compare of the permuted adjacencies marks the changed columns of W,
// and every inverse column whose solve reads no factor column those
// reach is copied from prev (see lu.Refactorize). The index is bit for
// bit the one BuildBlock makes with a nil prev — the sharded update
// path rebuilds dirty blocks through here and promises the result of a
// fresh build.
//
//kdash:mutates-factors
//kdash:deterministic
func BuildBlock(g *graph.Graph, opt BuildOptions, blk reorder.Block, prev *Index) (*Index, *louvain.Result, error) {
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

	a := g.ColumnNormalized().PermuteSym(perm)

	tFac := time.Now() //kdash:allow(determinism) BuildStats stage timer
	var changed []bool
	var prevInv *lu.Inverse
	if prev != nil && prev.n == g.N() && prev.c == c && prev.opts.DropTol == opt.DropTol {
		changed = a.ChangedColumns(prev.a)
		prevInv = prev.inverseFactors()
	}
	fac, err := lu.Refactorize(lu.BuildW(a, c), changed)
	if err != nil {
		return nil, nil, fmt.Errorf("core: factorizing W: %w", err)
	}
	facTime := time.Since(tFac) //kdash:allow(determinism) BuildStats stage timer, and the next line's
	tInv := time.Now()
	inverse := fac.Invert(lu.Options{DropTol: opt.DropTol, Workers: opt.Workers, Prev: prevInv})
	invTime := time.Since(tInv) //kdash:allow(determinism) BuildStats stage timer
	// The copied columns were read from prev's arrays.
	runtime.KeepAlive(prev)

	opt.Restart = c // retain the resolved value so Rebuild chains identically
	n := g.N()
	ix := &Index{
		n:        n,
		c:        c,
		srcGraph: g,
		opts:     opt,
		perm:     perm,
		inv:      reorder.Invert(perm),
		a:        a,
		linv:     inverse.Linv,
		uinv:     inverse.Uinv,
		amax:     a.Max(),
		amaxCol:  a.ColMax(),
		selfA:    make([]float64, n),
	}
	for u := 0; u < n; u++ {
		ix.selfA[u] = a.At(u, u)
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
	trackHeap(ix, ix.arrayBytes())
	return ix, communities, nil
}

// N reports the number of indexed nodes.
func (ix *Index) N() int { return ix.n }

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
	// Ctx, when non-nil, cancels the query: engines check it at coarse
	// boundaries (a sharded engine between shard solves, never per
	// node) and abandon the solve with the context's error. A nil Ctx
	// is never checked — the hot path pays one branch.
	Ctx context.Context
	// Trace, when non-nil, records the query's execution structure
	// (shard solve schedule, residual-bound trajectory, per-phase wall
	// clock) into the pointed-to recorder. The caller owns the
	// instance; engines only append. Nil disables all recording and
	// all timing syscalls.
	Trace *obs.QueryTrace
	// SolvedShards, when non-nil, receives (appended, ascending) the ids
	// of the shards a sharded engine's push solved — everything the
	// answer depends on, which is what lets the server's cache keep an
	// entry across an update that dirtied other shards. Caller-owned
	// like Trace; the monolithic index has no shards and leaves it
	// alone.
	SolvedShards *[]int
}

// TopK returns the K nodes with the highest RWR proximity w.r.t. query
// node q, exactly (Theorem 2). Results use original node ids and are
// sorted by descending proximity. If fewer than K nodes are reachable
// from q, only the reachable ones are returned: every other node has
// proximity exactly zero.
func (ix *Index) TopK(q, k int) ([]topk.Result, SearchStats, error) {
	return ix.Search(q, SearchOptions{K: k})
}

// searchWS is the per-query scratch a tree search needs. A batch reuses
// one instance across its queries so a large index does not pay two O(n)
// allocations (plus their zeroing) per query: the proximity workspace is
// spot-cleaned after each query and the BFS state is invalidated by
// bumping the generation counter instead of rewriting the arrays.
type searchWS struct {
	ws   []float64 // scattered L^{-1} r; only scattered entries are live
	tree *TreeWS
}

func (ix *Index) newSearchWS() *searchWS {
	return &searchWS{ws: make([]float64, ix.n), tree: NewTreeWS(ix.n)}
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
// workspace clean for the next query of a batch.
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
	// The monolithic search is one uninterruptible factor sweep, so the
	// context is checked once up front: a request whose client is
	// already gone never starts the work.
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("core: query cancelled: %w", err)
		}
	}
	var tSolve time.Time
	if opt.Trace != nil {
		tSolve = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
	}
	qi := ix.perm[q] // internal id

	// L^{-1} e_q scattered into a dense workspace for O(1) lookups while
	// walking rows of U^{-1}.
	for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
		sw.ws[ix.linv.RowIdx[i]] = ix.linv.Val[i]
	}

	heap := topk.New(opt.K)
	excluded := ix.internalExclusions(opt.Exclude)

	if opt.RandomRoot {
		ix.searchRandomRoot(qi, heap, sw.ws, opt, excluded, &stats)
	} else {
		ix.searchTree([]int{qi}, heap, sw, !opt.DisablePruning, excluded, &stats)
	}

	// Spot-clean the scattered column so the workspace is reusable.
	for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
		sw.ws[ix.linv.RowIdx[i]] = 0
	}

	var tRank time.Time
	if opt.Trace != nil {
		tRank = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
		opt.Trace.SolveNS += tRank.Sub(tSolve).Nanoseconds()
	}
	results := heap.Results()
	for i := range results {
		results[i].Node = ix.inv[results[i].Node]
	}
	if tr := opt.Trace; tr != nil {
		tr.RankNS += time.Since(tRank).Nanoseconds() //kdash:allow(determinism) phase timing feeds only the trace block
		// The monolithic search has no shard granularity: the trace
		// carries phase timings and work counts, no solve steps.
		tr.NodesEvaluated += stats.ProximityComputations
		tr.Converged = true
	}
	return results, stats, nil
}

// BatchQuery is one query of a batched execution: a query node, its
// answer-set size and an optional exclusion set (original node ids).
type BatchQuery struct {
	Q       int
	K       int
	Exclude map[int]bool
}

// SearchBatch answers a block of queries, validating every query before
// any work happens so a bad entry fails the batch without partial
// execution. The queries share one search workspace, which removes the
// per-query O(n) allocate-and-zero cost that dominates small pruned
// searches on large indexes. Answers are identical to issuing each query
// through Search.
func (ix *Index) SearchBatch(queries []BatchQuery) ([][]topk.Result, []SearchStats, error) {
	return ix.SearchBatchCtx(nil, queries)
}

// SearchBatchCtx is SearchBatch with cancellation: a non-nil context
// is checked between the batch's queries (each individual search is
// one uninterruptible factor sweep), so a disconnected client stops
// paying for the rest of its batch. A nil context is never checked.
//
//kdash:ctxloop
func (ix *Index) SearchBatchCtx(ctx context.Context, queries []BatchQuery) ([][]topk.Result, []SearchStats, error) {
	for i, bq := range queries {
		if bq.Q < 0 || bq.Q >= ix.n {
			return nil, nil, fmt.Errorf("core: batch query %d: node %d outside [0,%d)", i, bq.Q, ix.n)
		}
		if bq.K <= 0 {
			return nil, nil, fmt.Errorf("core: batch query %d: K must be positive, got %d", i, bq.K)
		}
	}
	sw := ix.getSearchWS()
	defer ix.putSearchWS(sw)
	results := make([][]topk.Result, len(queries))
	stats := make([]SearchStats, len(queries))
	for i, bq := range queries {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("core: batch cancelled after %d of %d queries: %w", i, len(queries), err)
			}
		}
		rs, st, err := ix.search(bq.Q, SearchOptions{K: bq.K, Exclude: bq.Exclude}, sw)
		if err != nil {
			return nil, nil, err
		}
		results[i], stats[i] = rs, st
	}
	return results, stats, nil
}

// TopKBatch answers top-k for a block of query nodes with a shared
// answer-set size; see SearchBatch.
func (ix *Index) TopKBatch(qs []int, k int) ([][]topk.Result, []SearchStats, error) {
	queries := make([]BatchQuery, len(qs))
	for i, q := range qs {
		queries[i] = BatchQuery{Q: q, K: k}
	}
	return ix.SearchBatch(queries)
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
			out[ix.perm[node]] = true
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
	// Internal ids, sorted for deterministic visit order.
	internal := make([]int, 0, len(seeds))
	weight := make(map[int]float64, len(seeds))
	for _, node := range nodes {
		qi := ix.perm[node]
		internal = append(internal, qi)
		weight[qi] = seeds[node] / total
	}
	sort.Ints(internal)
	// Accumulate L^{-1} r into a pooled workspace, spot-cleaning the
	// scattered columns afterwards so the workspace goes back clean.
	sw := ix.getSearchWS()
	for _, qi := range internal {
		wq := weight[qi]
		for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
			sw.ws[ix.linv.RowIdx[i]] += wq * ix.linv.Val[i]
		}
	}
	heap := topk.New(k)
	ix.searchTree(internal, heap, sw, true, nil, &stats)
	for _, qi := range internal {
		for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
			sw.ws[ix.linv.RowIdx[i]] = 0
		}
	}
	ix.putSearchWS(sw)
	results := heap.Results()
	for i := range results {
		results[i].Node = ix.inv[results[i].Node]
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
			u := ix.a.RowIdx[i]
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
	return ix.c * ix.inverseFactors().UpperRowDot(u, ws)
}

// bounds returns the index's Definition 2 tables, over internal ids.
func (ix *Index) bounds() Bounds {
	return Bounds{c: ix.c, amax: ix.amax, amaxCol: ix.amaxCol, selfA: ix.selfA}
}

// cPrime is Definition 1's c' for internal node u.
func (ix *Index) cPrime(u int) float64 {
	b := ix.bounds()
	return b.cPrime(u)
}

// searchTree runs Algorithm 4 (SearchTree) over the reordered adjacency
// — out-edges of v are the rows of column v of A — scoring nodes with
// exact proximities against the L^{-1} column(s) pre-scattered in sw.ws.
// Roots are internal ids, sorted ascending.
func (ix *Index) searchTree(roots []int, heap *topk.Heap, sw *searchWS, prune bool, excluded map[int]bool, stats *SearchStats) {
	b := ix.bounds()
	score := func(u int) float64 { return ix.proximity(u, sw.ws) }
	SearchTree(sw.tree, &b, ix.a.ColPtr, ix.a.RowIdx, roots, score, heap, excluded, prune, stats)
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
			est = ix.cPrime(u) * (sumPA + rem*ix.amax)
		}
		if !opt.DisablePruning && heap.Len() == heap.K() && est < heap.Threshold() {
			continue // skip this node only; no global termination
		}
		p := ix.proximity(u, ws)
		stats.ProximityComputations++
		if !excluded[u] {
			heap.Push(u, p)
		}
		sumPA += p * ix.amaxCol[u]
		sumP += p
	}
}

// Solve computes y = W^{-1} r through the inverted factors, where
// W = I - (1-c)A is the matrix the index factorized. Input and output are
// dense vectors in original node-id order; zero entries of r cost nothing
// in the L^{-1} pass. Unlike the proximity methods, Solve does not apply
// the restart factor c: it is the raw linear-system primitive that
// internal/shard's cross-shard push is built on (each shard solve
// consumes a residual right-hand side that already carries its scaling).
func (ix *Index) Solve(r []float64) ([]float64, error) {
	if len(r) != ix.n {
		return nil, fmt.Errorf("core: Solve rhs has %d entries, index has %d nodes", len(r), ix.n)
	}
	// ws = L^{-1} (P r), accumulated column by column over nonzero rhs
	// entries.
	ws := make([]float64, ix.n)
	for u, v := range r {
		if v == 0 {
			continue
		}
		qi := ix.perm[u]
		for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
			ws[ix.linv.RowIdx[i]] += v * ix.linv.Val[i]
		}
	}
	// y = P^T (U^{-1} ws).
	out := make([]float64, ix.n)
	for u := 0; u < ix.n; u++ {
		s := 0.0
		for i := ix.uinv.RowPtr[u]; i < ix.uinv.RowPtr[u+1]; i++ {
			s += ix.uinv.Val[i] * ws[ix.uinv.ColIdx[i]]
		}
		out[ix.inv[u]] = s
	}
	return out, nil
}

// ProximityVector computes the full exact proximity vector for q through
// the factors (Equation (3)): p = c U^{-1} L^{-1} e_q. Results are in
// original node-id order. The solve runs through a pooled single-lane
// sparse solver, so only the returned vector is allocated and only the
// factor entries the query's support reaches are traversed.
func (ix *Index) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= ix.n {
		return nil, fmt.Errorf("core: query node %d outside [0,%d)", q, ix.n)
	}
	s := ix.getSparseSolver()
	y, sup, err := s.SolveSparse([]int{q}, []float64{1})
	if err != nil {
		ix.putSparseSolver(s)
		return nil, err
	}
	out := make([]float64, ix.n)
	if sup == nil {
		for u, v := range y {
			out[u] = ix.c * v
		}
	} else {
		for _, u := range sup {
			out[u] = ix.c * y[u]
		}
	}
	ix.putSparseSolver(s)
	return out, nil
}

// Proximity computes the single exact proximity of node u w.r.t. query q
// through a pooled workspace: one L^{-1} column scatter, one U^{-1} row
// dot, no allocation.
func (ix *Index) Proximity(q, u int) (float64, error) {
	if q < 0 || q >= ix.n || u < 0 || u >= ix.n {
		return 0, fmt.Errorf("core: node pair (%d,%d) outside [0,%d)", q, u, ix.n)
	}
	qi := ix.perm[q]
	sw := ix.getSearchWS()
	for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
		sw.ws[ix.linv.RowIdx[i]] = ix.linv.Val[i]
	}
	p := ix.proximity(ix.perm[u], sw.ws)
	for i := ix.linv.ColPtr[qi]; i < ix.linv.ColPtr[qi+1]; i++ {
		sw.ws[ix.linv.RowIdx[i]] = 0
	}
	ix.putSearchWS(sw)
	return p, nil
}
