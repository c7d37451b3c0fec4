package shard

// Cross-shard query path, in two phases. The push runs shard-granular
// on the regular splitting W = D - (1-c)A_cross: D's diagonal blocks are
// the per-shard factorized matrices, A_cross the cut edges. It keeps a
// residual right-hand side per shard and repeatedly solves the shard with
// the most pending mass through its inverted factors, propagating
// (1-c)-scaled solved mass along cut edges — which needs the solution
// only on the rows that own cut edges. The accumulated solution x
// approaches the true proximity vector monotonically from below with
// per-entry error bounded by (residual mass)/c, so shards whose pending
// inflow falls under the tolerance are pruned unsolved and the final
// ranking is exact within QueryTol/c.
//
// The rank is the paper's Algorithm 4 over the graph snapshot: a BFS
// from the query that computes x only at the nodes it selects and stops
// once Definition 2's estimate proves no unvisited node can enter the
// answer. x satisfies x = c·e_q - r + (1-c)Ax with r >= 0 and sums to at
// most 1, which is all the estimate needs to bound it, so the pruned
// rank returns exactly what a scan of every entry of x would.

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/topk"
)

// QueryStats reports per-query work at shard granularity.
type QueryStats struct {
	Solves         int     // per-shard factor solves performed
	ShardsSolved   int     // distinct shards solved at least once
	ShardsPruned   int     // shards with pending inflow never solved
	NodesEvaluated int     // U^{-1} row dots: cut rows the push evaluated + proximities the rank computed
	ResidualMass   float64 // unprocessed mass at termination
	Converged      bool    // residual fell below tolerance
}

// maxSolves bounds a single query's shard solves; the geometric residual
// decay makes reaching it impossible in practice (it would take a restart
// probability within 1e-4 of zero).
const maxSolves = 100000

// push runs the block push from the given scaled restart vector (global
// node id -> mass, already multiplied by c) and returns per-shard
// accumulated proximity vectors; untouched shards stay nil.
func (sx *ShardedIndex) push(seeds map[int]float64) ([][]float64, QueryStats) {
	return sx.pushWeighted(seeds, nil)
}

// pushWeighted is push with optional per-shard influence weights. A nil
// weight vector is the full push: every shard weighs 1 and the loop runs
// until the raw residual falls under tolerance, bounding every proximity
// entry. A weight vector (from pairWeights) discounts each shard's
// pending mass by how much of it can ever reach the target shard, so the
// push both prioritises relevant shards and terminates as soon as the
// target's entries are settled, even while irrelevant mass remains.
//
// The returned vectors are caller-owned copies of every row of the
// solved shards; the query paths (TopK, Proximity, ProximityVector) read
// the pooled push state directly instead.
//
//kdash:deterministic
func (sx *ShardedIndex) pushWeighted(seeds map[int]float64, w []float64) ([][]float64, QueryStats) {
	st := sx.getPushState()
	for _, g := range seedNodesSorted(seeds) {
		st.seed(g, seeds[g])
	}
	qs, _ := st.run(w)       // test-only path: no context, no RemoteSolver, no lazy opens — run cannot fail
	x, _ := st.materialize() // likewise: in process it cannot fail
	sx.putPushState(st)
	return x, qs
}

// seedNodesSorted returns a seed map's keys in ascending node order.
// Seeding order reaches the solver's right-hand side through residual
// accumulation, and a map-ordered float sum drifts bits between runs —
// every seeding loop must iterate this slice, never the map.
func seedNodesSorted(seeds map[int]float64) []int {
	nodes := make([]int, 0, len(seeds))
	for g := range seeds { //kdash:allow(determinism) keys only: sorted below, before any mass is accumulated
		nodes = append(nodes, g)
	}
	sort.Ints(nodes)
	return nodes
}

// partLen is the shard graph's node count (owned nodes + ghost sink).
func (sx *ShardedIndex) partLen(si int) int {
	p := sx.parts[si]
	if p.sink {
		return len(p.nodes) + 1
	}
	return len(p.nodes)
}

// TopK returns the K nodes with the highest RWR proximity w.r.t. query
// node q: proximities agree with the monolithic core.Index.TopK's within
// QueryTol/c, so only nodes tied to that precision may rank differently.
// Results use original node ids, sorted by descending proximity with
// ties broken by ascending node id.
func (sx *ShardedIndex) TopK(q, k int) ([]topk.Result, QueryStats, error) {
	return sx.topK(q, k, core.SearchOptions{})
}

//kdash:deterministic
func (sx *ShardedIndex) topK(q, k int, opt core.SearchOptions) ([]topk.Result, QueryStats, error) {
	var qs QueryStats
	if q < 0 || q >= sx.n {
		return nil, qs, fmt.Errorf("shard: query node %d outside [0,%d)", q, sx.n)
	}
	if k <= 0 {
		return nil, qs, fmt.Errorf("shard: K must be positive, got %d", k)
	}
	if err := sx.ensureGraph(); err != nil {
		return nil, qs, err
	}
	st := sx.getPushState()
	st.ctx, st.tr = opt.Ctx, opt.Trace
	var tPush time.Time
	if opt.Trace != nil {
		tPush = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
	}
	st.seed(q, sx.c)
	st.roots = append(st.roots, q)
	if sx.remote != nil {
		st.rankPrefix(k + len(opt.Exclude))
	}
	qs, err := st.run(nil)
	if err != nil {
		sx.putPushState(st)
		return nil, qs, err
	}
	var tRank time.Time
	if opt.Trace != nil {
		tRank = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
		opt.Trace.SolveNS += tRank.Sub(tPush).Nanoseconds()
	}
	results, err := st.rank(k, opt.Exclude, &qs)
	if err != nil {
		sx.putPushState(st)
		return nil, qs, err
	}
	if opt.Trace != nil {
		opt.Trace.RankNS += time.Since(tRank).Nanoseconds() //kdash:allow(determinism) phase timing feeds only the trace block
	}
	if opt.SolvedShards != nil {
		for si := range st.solves {
			if st.solves[si].recorded() {
				*opt.SolvedShards = append(*opt.SolvedShards, si)
			}
		}
	}
	sx.putPushState(st)
	return results, qs, nil
}

// Search serves a query through the core.SearchOptions surface so a
// ShardedIndex is a drop-in engine for internal/server. K, Exclude,
// Ctx (cancellation between shard solves), Trace (per-query push
// trace) and SolvedShards are honoured; the monolithic ablation knobs
// (DisablePruning, RandomRoot) are ignored.
func (sx *ShardedIndex) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	results, qs, err := sx.topK(q, opt.K, opt)
	return results, qs.searchStats(), err
}

// searchStats maps shard-level work onto the monolithic stats shape:
// every evaluated row — a cut row of the push or a node the rank
// selected — cost one U^{-1} row dot, and a pruned shard is the
// shard-granular analogue of early termination.
func (qs QueryStats) searchStats() core.SearchStats {
	return core.SearchStats{
		Visited:               qs.NodesEvaluated,
		ProximityComputations: qs.NodesEvaluated,
		Terminated:            qs.ShardsPruned > 0,
	}
}

// TopKPersonalized generalises TopK to a restart distribution, mirroring
// core.Index.TopKPersonalized: the walk restarts into the seed nodes with
// probability proportional to their weights. Validation, weight
// normalisation and seeding all iterate the seed nodes in ascending
// order: the normalising sum and the seeded residuals feed float
// accumulation, where map iteration order would drift bits between runs.
//
//kdash:deterministic
func (sx *ShardedIndex) TopKPersonalized(seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	var qs QueryStats
	if k <= 0 {
		return nil, qs.searchStats(), fmt.Errorf("shard: K must be positive, got %d", k)
	}
	if len(seeds) == 0 {
		return nil, qs.searchStats(), fmt.Errorf("shard: empty seed set")
	}
	nodes := seedNodesSorted(seeds)
	total := 0.0
	for _, node := range nodes {
		w := seeds[node]
		if node < 0 || node >= sx.n {
			return nil, qs.searchStats(), fmt.Errorf("shard: seed node %d outside [0,%d)", node, sx.n)
		}
		if w <= 0 {
			return nil, qs.searchStats(), fmt.Errorf("shard: seed node %d has non-positive weight %v", node, w)
		}
		total += w
	}
	if err := sx.ensureGraph(); err != nil {
		return nil, qs.searchStats(), err
	}
	st := sx.getPushState()
	for _, node := range nodes {
		st.seed(node, sx.c*seeds[node]/total)
	}
	st.roots = append(st.roots, nodes...) // layer 0 of a multi-source BFS
	if sx.remote != nil {
		st.rankPrefix(k)
	}
	qs, err := st.run(nil)
	if err != nil {
		sx.putPushState(st)
		return nil, qs.searchStats(), err
	}
	results, err := st.rank(k, nil, &qs)
	sx.putPushState(st)
	if err != nil {
		return nil, qs.searchStats(), err
	}
	return results, qs.searchStats(), nil
}

// pairWeights returns the weight vector for target shard su, memoized
// per target shard on the index: before the memo every Proximity(q,u)
// call redid the reverse shard BFS and weight computation from scratch.
// Concurrent first calls may compute the (identical, immutable) vector
// twice; one of the stores wins and every later call hits the cache.
func (sx *ShardedIndex) pairWeights(su int) []float64 {
	sx.pairWOnce.Do(func() { sx.pairW = make([]atomic.Pointer[[]float64], len(sx.parts)) })
	if w := sx.pairW[su].Load(); w != nil {
		return *w
	}
	w := sx.computePairWeights(su)
	sx.pairW[su].Store(&w)
	return w
}

// computePairWeights bounds, per shard, how much of a unit of pending
// residual mass can ever influence a proximity entry inside shard su, so
// a single-pair query can stop pushing long before the global residual
// is driven to tolerance. The bound: solving unit mass in any shard
// yields solution mass at most 1/c (|W_s^{-1} m|_1 <= |m|_1/c), of which
// at most (1-c)/c =: λ leaves across cut edges. Mass sitting d
// cut-crossings away from su therefore delivers at most λ^d/(1-λ) into
// su over the rest of the push (geometric sum over path lengths >= d),
// and each delivered unit raises an entry of su by at most 1/c — the
// same 1/c the full push's global bound uses, so weighting shard masses
// by
//
//	w(su) = 1,  w(s') = min(1, λ^{d(s')}/(1-λ)),  w(unreachable) = 0
//
// and terminating at (Σ_s w(s)·resMass[s]) <= tol preserves exactly the
// full push's per-entry guarantee for shard su. Shards with no directed
// cut path into su get weight zero: their mass is never solved at all,
// which restores near-O(1) single-pair cost when q's mass cannot reach u.
// For c <= 1/2 the geometric sum diverges and every reachable shard
// falls back to the global weight 1.
func (sx *ShardedIndex) computePairWeights(su int) []float64 {
	s := len(sx.parts)
	dist := make([]int, s)
	for i := range dist {
		dist[i] = -1
	}
	dist[su] = 0
	queue := append(make([]int, 0, s), su)
	rev := sx.reverseShardAdj()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, p := range rev[v] {
			if dist[p] < 0 {
				dist[p] = dist[v] + 1
				queue = append(queue, p)
			}
		}
	}
	lambda := (1 - sx.c) / sx.c
	w := make([]float64, s)
	for si := range w {
		switch {
		case dist[si] == 0:
			w[si] = 1
		case dist[si] < 0:
			w[si] = 0
		case lambda < 1:
			wi := math.Pow(lambda, float64(dist[si])) / (1 - lambda)
			if wi > 1 {
				wi = 1
			}
			w[si] = wi
		default:
			w[si] = 1
		}
	}
	return w
}

// Proximity computes the exact proximity of node u w.r.t. query q. The
// push is weighted towards u's shard (pairWeights), so it terminates as
// soon as that shard's entries are settled instead of driving the global
// residual to tolerance — the single-pair analogue of the monolithic
// index answering one pair from one row-column product.
//
//kdash:deterministic
func (sx *ShardedIndex) Proximity(q, u int) (float64, error) {
	if q < 0 || q >= sx.n || u < 0 || u >= sx.n {
		return 0, fmt.Errorf("shard: node pair (%d,%d) outside [0,%d)", q, u, sx.n)
	}
	st := sx.getPushState()
	st.seed(q, sx.c)
	if sx.remote != nil {
		st.roots = append(st.roots, u)
		st.startPrefix(st.roots) // the one row the answer reads
	}
	if _, err := st.run(sx.pairWeights(int(sx.home[u]))); err != nil {
		sx.putPushState(st)
		return 0, err
	}
	p := st.score(u)
	err := st.err
	sx.putPushState(st)
	if err != nil {
		return 0, err
	}
	return p, nil
}

// ProximityVector computes the full proximity vector for q in original
// node-id order.
//
//kdash:deterministic
func (sx *ShardedIndex) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= sx.n {
		return nil, fmt.Errorf("shard: query node %d outside [0,%d)", q, sx.n)
	}
	st := sx.getPushState()
	st.seed(q, sx.c)
	if _, err := st.run(nil); err != nil {
		sx.putPushState(st)
		return nil, err
	}
	xs, err := st.materialize()
	sx.putPushState(st)
	if err != nil {
		return nil, err
	}
	out := make([]float64, sx.n)
	for si, x := range xs {
		for lv, v := range x {
			out[sx.parts[si].nodes[lv]] = v
		}
	}
	return out, nil
}
