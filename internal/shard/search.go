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
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/obs"
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

// runPush is every query's push: it checks a pooled state out, seeds
// restart mass mass[i] (already scaled by c) at node nodes[i] in the
// order given, starts the rank's BFS from roots — under a RemoteSolver
// also layer 0 of the rank prefix, widened past need nodes — and drives the
// residual to tolerance, honouring ctx and recording into tr (either
// may be nil). One push and one termination rule serve every
// read, so a node's proximity has the same bits whether TopK ranks it,
// Proximity scores it or ProximityVector materializes it. The state is
// the caller's on every path, an error's included: it reads it (rank,
// score or materialize) and returns it with putPushState.
//
//kdash:pooled
//kdash:deterministic
func (sx *ShardedIndex) runPush(ctx context.Context, tr *obs.QueryTrace, nodes []int, mass []float64, roots []int, need int) (*pushState, QueryStats, error) {
	st := sx.getPushState()
	st.ctx, st.tr = ctx, tr
	for i, g := range nodes {
		st.seed(g, mass[i])
	}
	if len(roots) > 0 {
		st.roots = append(st.roots, roots...)
		st.startTree()
		if sx.remote != nil {
			st.rankPrefix(need)
		}
	}
	qs, err := st.run()
	return st, qs, err
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

// CheckSeeds validates a personalized query's restart distribution over
// n nodes: a seed set that is not empty, every node in [0,n), every
// weight positive and finite (graph.ValidWeight, the rule edge weights
// keep), and a finite total — the weights are divided by it, so a total
// that overflows would seed no mass at all. It returns the seed nodes
// ascending and the total summed in that order.
func CheckSeeds(seeds map[int]float64, n int) ([]int, float64, error) {
	if len(seeds) == 0 {
		return nil, 0, fmt.Errorf("shard: empty seed set")
	}
	nodes := seedNodesSorted(seeds)
	total := 0.0
	for _, node := range nodes {
		if node < 0 || node >= n {
			return nil, 0, fmt.Errorf("shard: seed node %d outside [0,%d)", node, n)
		}
		w := seeds[node]
		if !graph.ValidWeight(w) {
			return nil, 0, fmt.Errorf("shard: seed node %d has weight %v, not positive and finite", node, w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return nil, 0, fmt.Errorf("shard: seed weights sum to %v, not finite", total)
	}
	return nodes, total, nil
}

// PartLen reports shard si's solve dimension, its shard graph's node
// count: owned nodes plus the ghost sink row when the shard has
// outgoing cut weight.
func (sx *ShardedIndex) PartLen(si int) int {
	p := sx.parts[si]
	if p.sink {
		return len(p.nodes) + 1
	}
	return len(p.nodes)
}

// TopK returns the K nodes with the highest RWR proximity w.r.t. query
// node q: proximities are exact within QueryTol/c, so only nodes tied to
// that precision may rank differently at another shard count. Results
// use original node ids, sorted by descending proximity with ties broken
// by ascending node id. If fewer than K nodes are reachable from q, only
// the reachable ones are returned: every other node's proximity is zero.
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
	if opt.RandomRoot && sx.remote != nil {
		return nil, qs, fmt.Errorf("shard: a random root needs an in-process push; a coordinator fetches rows along the query's own tree")
	}
	if err := sx.ensureGraph(); err != nil {
		return nil, qs, err
	}
	var tPush time.Time
	if opt.Trace != nil {
		tPush = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
	}
	root := []int{q}
	st, qs, err := sx.runPush(opt.Ctx, opt.Trace, root, []float64{sx.c}, root, k+len(opt.Exclude))
	if err != nil {
		sx.putPushState(st)
		return nil, qs, err
	}
	var tRank time.Time
	if opt.Trace != nil {
		tRank = time.Now() //kdash:allow(determinism) phase timing feeds only the trace block
		opt.Trace.SolveNS += tRank.Sub(tPush).Nanoseconds()
	}
	results, err := st.rank(k, &opt, &qs)
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

// Search serves a query through the core.SearchOptions surface, the
// engine internal/server and the paper's experiments call. Every option
// is honoured: K, Exclude, Ctx (cancellation between shard solves),
// Trace (per-query push trace), SolvedShards, and the ablation knobs of
// Figures 7 and 9 — DisablePruning, and RandomRoot with RootSeed, which
// a coordinator (a RemoteSolver) refuses. The knobs change which nodes
// the rank scores, never a score: every answer has the pruned query's
// bits.
func (sx *ShardedIndex) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	results, qs, err := sx.topK(q, opt.K, opt)
	return results, qs.searchStats(), err
}

// searchStats maps shard-level work onto core.SearchStats:
// every evaluated row — a cut row of the push or a node the rank
// selected — cost one U^{-1} row dot, and a pruned shard is the
// shard-granular analogue of early termination. The rank's own Visited
// and Terminated are not reported: the served stats are these.
func (qs QueryStats) searchStats() core.SearchStats {
	return core.SearchStats{
		Visited:               qs.NodesEvaluated,
		ProximityComputations: qs.NodesEvaluated,
		Terminated:            qs.ShardsPruned > 0,
	}
}

// TopKPersonalized generalises TopK to a restart distribution
// (Personalized PageRank, the paper's footnote 6): the walk restarts
// into the seed nodes with probability proportional to their weights.
// The seeds are layer 0 of a multi-source BFS, which keeps the layer
// property Lemmas 1–2 rely on, so the answer is exact. Validation, weight
// normalisation and seeding all iterate the seed nodes in ascending
// order: the normalising sum and the seeded residuals feed float
// accumulation, where map iteration order would drift bits between runs.
//
//kdash:deterministic
func (sx *ShardedIndex) TopKPersonalized(seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	return sx.topKPersonalized(nil, seeds, k)
}

// TopKPersonalizedContext is TopKPersonalized under ctx: the push
// checks it between shard solves, as Search checks SearchOptions.Ctx,
// and a done ctx abandons the query with ctx's error.
func (sx *ShardedIndex) TopKPersonalizedContext(ctx context.Context, seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	return sx.topKPersonalized(ctx, seeds, k)
}

// topKPersonalized runs TopKPersonalized; a nil ctx is never checked.
//
//kdash:deterministic
func (sx *ShardedIndex) topKPersonalized(ctx context.Context, seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	var qs QueryStats
	if k <= 0 {
		return nil, qs.searchStats(), fmt.Errorf("shard: K must be positive, got %d", k)
	}
	nodes, total, err := CheckSeeds(seeds, sx.n)
	if err != nil {
		return nil, qs.searchStats(), err
	}
	if err := sx.ensureGraph(); err != nil {
		return nil, qs.searchStats(), err
	}
	mass := make([]float64, len(nodes))
	for i, node := range nodes {
		mass[i] = sx.c * seeds[node] / total
	}
	// The seeds are layer 0 of a multi-source BFS.
	st, qs, err := sx.runPush(ctx, nil, nodes, mass, nodes, k)
	var results []topk.Result
	if err == nil {
		results, err = st.rank(k, &core.SearchOptions{}, &qs)
	}
	sx.putPushState(st)
	return results, qs.searchStats(), err
}

// Proximity computes the exact proximity of node u w.r.t. query q: the
// score TopK(q, k) ranks u with, bit for bit, because it runs the same
// push and reads u's row the way the rank does. Under a RemoteSolver
// the push fetches that one row with its solves.
//
//kdash:deterministic
func (sx *ShardedIndex) Proximity(q, u int) (float64, error) { return sx.proximity(nil, q, u) }

// ProximityContext is Proximity under ctx: the push checks it between
// shard solves, and a done ctx abandons the query with ctx's error.
func (sx *ShardedIndex) ProximityContext(ctx context.Context, q, u int) (float64, error) {
	return sx.proximity(ctx, q, u)
}

// proximity runs Proximity; a nil ctx is never checked.
//
//kdash:deterministic
func (sx *ShardedIndex) proximity(ctx context.Context, q, u int) (float64, error) {
	if q < 0 || q >= sx.n || u < 0 || u >= sx.n {
		return 0, fmt.Errorf("shard: node pair (%d,%d) outside [0,%d)", q, u, sx.n)
	}
	st, _, err := sx.runPush(ctx, nil, []int{q}, []float64{sx.c}, []int{u}, 0)
	var p float64
	if err == nil {
		if p = st.score(u); st.err != nil {
			p, err = 0, st.err
		}
	}
	sx.putPushState(st)
	return p, err
}

// ProximityVector computes the full proximity vector for q in original
// node-id order.
//
//kdash:deterministic
func (sx *ShardedIndex) ProximityVector(q int) ([]float64, error) {
	if q < 0 || q >= sx.n {
		return nil, fmt.Errorf("shard: query node %d outside [0,%d)", q, sx.n)
	}
	st, _, err := sx.runPush(nil, nil, []int{q}, []float64{sx.c}, nil, 0)
	var xs [][]float64
	if err == nil {
		xs, err = st.materialize()
	}
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
