// Package shard implements a partitioned K-dash index: the graph is split
// into balanced Louvain communities, one independent K-dash index is built
// per partition (concurrently, across a worker pool), and top-k queries
// are answered exactly by a shard-granular push that solves the query
// node's home shard through its inverted factors and propagates residual
// probability mass across cut edges into foreign shards.
//
// Exactness rests on two observations. First, each shard graph carries a
// ghost sink node absorbing the shard's outgoing cut weight, so the
// shard-local column normalisation equals the global one and the shard's
// factorized matrix is exactly the diagonal block D_s of the splitting
// W = D - (1-c)A_cross. Second, the push maintains the invariant
//
//	c e_q = W x + r
//
// with x, r >= 0: x grows monotonically towards the true proximity vector
// p = c W^{-1} e_q, and every entry of p - x is bounded by |r|_1 / c. Each
// processed unit of residual mass spawns at most
// (1-c)b / (c + (1-c)b) < 1 new mass (b = worst cut fraction of a
// column), so the residual vanishes geometrically and shards whose
// pending inflow can no longer raise any proximity above the tolerance
// are pruned without being solved — the paper's Amax-style estimation
// lifted to shard granularity via cut-edge mass.
//
// A ShardedIndex is immutable after construction: queries draw all
// their scratch from pooled push state, and dynamic updates are
// functional (Apply returns a successor epoch sharing untouched parts
// by pointer, loaded shard containers included, which are released
// once no epoch holding them is reachable). Persistence mirrors the
// partitioning — one file per shard under a manifest (serialize.go) —
// so Open can copy each shard file into sealed read-only memory and
// defer each one to the first query that solves the shard. See
// docs/ARCHITECTURE.md for the epoch/immutability contract and the
// directory format.
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/louvain"
	"kdash/internal/lu"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
)

// Options configures sharded index construction.
type Options struct {
	// Shards is the number of partitions. Zero selects one shard; values
	// above the node count are clamped.
	Shards int
	// Restart is the restart probability c (zero = the paper's 0.95).
	Restart float64
	// Reorder is the per-shard node ordering (normally reorder.Hybrid).
	Reorder reorder.Method
	// Seed drives Louvain and the per-shard orderings.
	Seed int64
	// Workers bounds concurrent shard builds (0 = all CPUs).
	Workers int
	// QueryTol is the relative residual-mass tolerance queries converge
	// to; proximities are exact within QueryTol/c of the true values.
	// Zero selects DefaultQueryTol.
	QueryTol float64
	// Assignment pins the node -> shard map explicitly instead of running
	// the Louvain partitioner; the shard count is 1 + the maximum value
	// and every shard must own at least one node. Shards is ignored when
	// set. This is how a from-scratch rebuild reproduces an incrementally
	// updated index bit-for-bit (see ShardedIndex.Assignment).
	Assignment []int
	// StalenessLimit is how many nodes may be appended to a shard by
	// Apply before the shard is locally re-partitioned (its nodes
	// re-homed to their best-connected shards). Zero selects
	// DefaultStalenessLimit; negative disables re-partitioning.
	StalenessLimit int
}

// DefaultQueryTol keeps query answers exact to ~1e-15, far inside the
// 1e-9 the validation suite asserts.
const DefaultQueryTol = 1e-15

// DefaultStalenessLimit is the per-shard appended-node budget before
// Apply re-partitions the shard locally.
const DefaultStalenessLimit = 32

// BuildStats reports partition-parallel precompute cost.
type BuildStats struct {
	Shards        int
	PartitionTime time.Duration // Louvain + balancing
	BuildTime     time.Duration // wall clock across the worker pool
	ShardCPUTime  time.Duration // summed per-shard build time
	Sizes         []int         // nodes per shard
	CutEdges      int           // directed edges crossing shards
	CutWeightFrac float64       // cut weight / total weight
	NNZInverse    int           // summed nnz(L^-1)+nnz(U^-1) over shards
	Communities   int           // Louvain communities before balancing
	Modularity    float64
}

// cutEdge is one directed edge leaving a shard, with its transition
// probability pre-scaled by (1-c) — exactly the coefficient the push
// multiplies solved mass by when propagating to the destination shard.
type cutEdge struct {
	src      int // local id in the source shard
	dstShard int
	dst      int     // local id in the destination shard
	w        float64 // (1-c) * A[dst, src] under the global normalisation
}

// part is one shard: the nodes it owns, its K-dash index over the induced
// subgraph (+ ghost sink when the shard has outgoing cut weight), and its
// outgoing cut edges grouped by source node.
//
// The index itself may be deferred: a lazily opened directory (see
// LoadOptions.Lazy) leaves ix nil and sets lazy, so the shard file is
// only opened when a query first pushes mass into the shard — reach the
// index through index() (or tryIndex for observability paths that must
// not force an open), never the field.
type part struct {
	nodes   []int // local -> global id
	ix      *core.Index
	lazy    *lazyIndex // non-nil: the index opens on first use
	sink    bool       // index has one extra sink node appended
	cuts    []cutEdge  // sorted by src
	cutPtr  []int      // cuts of local node v are cuts[cutPtr[v]:cutPtr[v+1]]
	cutRows []int      // local nodes owning cut edges, ascending
	nnzHint int        // the manifest's per-shard nnz, so stats need no open

	// communities is the Louvain result the block's ordering used, kept
	// so a successor whose owned subgraph is unchanged orders its
	// rebuild without running Louvain (nil after a load: never saved).
	communities *louvain.Result

	// cutUpper packs the U^{-1} rows of cutRows, in cutRows order, for
	// the push's cut-row dots; built on the first local solve.
	cutUpperOnce sync.Once
	cutUpper     *lu.UpperRows
}

// lazyIndex is the once-guarded deferred open of one shard's index
// file. It is shared by pointer when epochs share an unrebuilt part, so
// whichever epoch touches the shard first opens it for both.
type lazyIndex struct {
	once sync.Once
	done atomic.Bool // set after once ran; guards lock-free tryIndex reads
	open func() (*core.Index, error)
	ix   *core.Index
	err  error
}

// index returns the shard's core index, opening it on first use. An
// open failure (the file vanished or was corrupted between Load and the
// first query touching this shard) is a core.ErrUnavailable: the query
// is abandoned with no partial answer. Load-time validation (manifest
// shape, eager OpenAll when not lazy) makes this a genuine I/O-failure
// path, not an expected one.
func (p *part) index() (*core.Index, error) {
	if p.lazy == nil {
		return p.ix, nil
	}
	if err := p.openIndex(); err != nil {
		return nil, fmt.Errorf("shard: %w: %w", core.ErrUnavailable, err)
	}
	return p.lazy.ix, nil
}

// openIndex forces the deferred open, returning its error; OpenAll uses
// it to surface open failures as ordinary errors at load time.
func (p *part) openIndex() error {
	if p.lazy == nil {
		return nil
	}
	l := p.lazy
	l.once.Do(func() {
		l.ix, l.err = l.open()
		l.open = nil // the closure pins the directory paths; drop it
		l.done.Store(true)
	})
	return l.err
}

// tryIndex returns the index if it is already open and nil otherwise,
// without forcing an open — the race-safe read observability paths
// (Statz) and stats fallbacks use.
func (p *part) tryIndex() *core.Index {
	if p.lazy == nil {
		return p.ix
	}
	if p.lazy.done.Load() && p.lazy.err == nil {
		return p.lazy.ix
	}
	return nil
}

// nnzInverse reports the shard's inverse-factor nonzeros without
// forcing an open: the live index when available, the manifest's count
// otherwise.
func (p *part) nnzInverse() int {
	if ix := p.tryIndex(); ix != nil {
		return ix.Stats().NNZInverse
	}
	return p.nnzHint
}

// share returns a copy of the part for a successor epoch that did not
// rebuild it: the node list, index (open or deferred — the lazyIndex is
// shared by pointer), communities and cut lists carry over.
func (p *part) share() *part {
	return &part{nodes: p.nodes, ix: p.ix, lazy: p.lazy, sink: p.sink, nnzHint: p.nnzHint, cuts: p.cuts, cutPtr: p.cutPtr, cutRows: p.cutRows, communities: p.communities}
}

// cutRowsUpper returns the packed U^{-1} rows of the cut rows of the
// part, whose open index is ix.
func (p *part) cutRowsUpper(ix *core.Index) *lu.UpperRows {
	p.cutUpperOnce.Do(func() { p.cutUpper = ix.PackUpperRows(p.cutRows) })
	return p.cutUpper
}

// indexCuts derives the per-source pointers and the cut-owning rows from
// the cut list (sorted by source).
func (p *part) indexCuts() {
	p.cutPtr = make([]int, len(p.nodes)+1)
	p.cutRows = nil
	for _, e := range p.cuts {
		if p.cutPtr[e.src+1] == 0 {
			p.cutRows = append(p.cutRows, e.src)
		}
		p.cutPtr[e.src+1]++
	}
	for v := 0; v < len(p.nodes); v++ {
		p.cutPtr[v+1] += p.cutPtr[v]
	}
}

// ShardedIndex is a partitioned K-dash index. Like core.Index it is
// immutable after construction and safe for concurrent queries; dynamic
// updates are functional (Apply returns a successor index), so an epoch
// in a reader's hands never changes underneath it.
type ShardedIndex struct {
	n     int
	c     float64
	qtol  float64
	home  []int // global node -> shard
	local []int // global node -> local id within its shard
	parts []*part
	stats BuildStats

	// The current graph snapshot — what the rank searches (with bounds,
	// its Definition 2 tables, built once per epoch by setGraph) and
	// what Apply replays updates onto — the build inputs Apply reuses so
	// a rebuilt shard is bit-identical to a from-scratch one, the
	// per-shard appended-node staleness counters, and the epoch number
	// (0 for a fresh build, +1 per Apply).
	g              *graph.Graph
	bounds         core.Bounds
	method         reorder.Method
	seed           int64
	workers        int
	stalenessLimit int
	staleness      []int
	epoch          int

	// Write-ahead-log position (manifest v5): the last WAL sequence
	// number folded into these factors and the live segment names at
	// save time (informational; recovery rescans the log directory).
	// Set by SaveWALSnapshot; zero for indexes that never ran under a
	// WAL. Not carried across Apply — the compactor stamps each snapshot
	// explicitly with the position it knows it covers.
	walSeq      uint64
	walSegments []string

	// gOnce/gLoad defer the graph snapshot's parse for lazily opened
	// directories to the first query (or Apply, or Save) that needs it,
	// so opening costs no O(m) edge-list parse. ensureGraph forces it;
	// gErr holds a deferred parse failure.
	gOnce sync.Once
	gLoad func() (*graph.Graph, error)
	gErr  error

	// revAdj[d] lists the shards with a cut edge into shard d, the
	// shard-granular reverse adjacency single-pair queries bound residual
	// influence with. Derived lazily from the cut lists (Build and Load
	// both leave it unset) and immutable afterwards.
	revOnce sync.Once
	revAdj  [][]int

	// pushPool recycles complete single-query states (residual vectors,
	// touched-entry lists, per-shard solvers and L^{-1} workspaces, the
	// rank's BFS scratch) across queries; every request checks a private
	// instance out, so the pool is the concurrent-safe source of
	// per-query scratch and the steady-state query path allocates only
	// its result set.
	pushPool sync.Pool

	// pairW memoizes the single-pair push's per-target-shard influence
	// weights (pairWeights); each target's vector is computed once and
	// immutable afterwards.
	pairWOnce sync.Once
	pairW     []atomic.Pointer[[]float64]

	// Distributed-serving state (see remote.go). factorless marks a
	// coordinator-side index: buildPart skips the factorization (and
	// lazy opens never happen because every solve routes remotely), so
	// the index holds only the placement map, cut lists and graph
	// snapshot. remote, when set, routes every per-shard factor solve
	// through a RemoteSolver; it is not carried across Apply — the
	// coordinator rebinds a per-epoch solver on each successor. The
	// pools back the worker-side SolveShardRows RPC surface with
	// reusable per-part solvers and workspaces.
	factorless bool
	remote     RemoteSolver
	rpoolOnce  sync.Once
	rpool      []sync.Pool

	// solveCounts tracks cumulative factor solves per shard — the
	// traffic-weighted counterpart of shardsOpened, exposed through
	// Statz (and from there /metrics) so operators can see which
	// shards queries actually land on. Built lazily like revAdj; the
	// counters are per-epoch (a successor from Apply starts at zero),
	// which Prometheus counter semantics tolerate as a reset.
	solveOnce   sync.Once
	solveCounts []atomic.Int64
}

// solveCounters returns the per-shard solve counters, building them on
// first use.
func (sx *ShardedIndex) solveCounters() []atomic.Int64 {
	sx.solveOnce.Do(func() { sx.solveCounts = make([]atomic.Int64, len(sx.parts)) })
	return sx.solveCounts
}

// setGraph installs an epoch's graph snapshot together with the
// Definition 2 tables the rank searches it with, so no query ever
// builds them.
func (sx *ShardedIndex) setGraph(g *graph.Graph) {
	sx.g = g
	sx.bounds = core.GraphBounds(g, sx.c)
}

// reverseShardAdj returns the deduplicated reverse adjacency of the
// shard digraph, building it on first use.
func (sx *ShardedIndex) reverseShardAdj() [][]int {
	sx.revOnce.Do(func() {
		s := len(sx.parts)
		adj := make([][]int, s)
		seen := make([]int, s) // seen[d] == si+1: edge si -> d recorded
		for si, p := range sx.parts {
			for _, e := range p.cuts {
				if seen[e.dstShard] != si+1 {
					seen[e.dstShard] = si + 1
					adj[e.dstShard] = append(adj[e.dstShard], si)
				}
			}
		}
		sx.revAdj = adj
	})
	return sx.revAdj
}

// Build partitions the graph and builds one K-dash index per partition
// concurrently.
func Build(g *graph.Graph, opt Options) (*ShardedIndex, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("shard: cannot index an empty graph")
	}
	c := opt.Restart
	if c == 0 {
		c = rwr.DefaultRestart
	}
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("shard: restart probability %v outside (0,1)", c)
	}
	s := opt.Shards
	if s <= 0 {
		s = 1
	}
	if s > n {
		s = n
	}
	qtol := opt.QueryTol
	if qtol <= 0 {
		qtol = DefaultQueryTol
	}

	start := time.Now()
	var (
		home        []int
		communities int
		modularity  float64
	)
	if opt.Assignment != nil {
		if len(opt.Assignment) != n {
			return nil, fmt.Errorf("shard: assignment has %d entries, graph has %d nodes", len(opt.Assignment), n)
		}
		s = 0
		for u, si := range opt.Assignment {
			if si < 0 {
				return nil, fmt.Errorf("shard: assignment maps node %d to shard %d", u, si)
			}
			if si+1 > s {
				s = si + 1
			}
		}
		counts := make([]int, s)
		for _, si := range opt.Assignment {
			counts[si]++
		}
		for si, cnt := range counts {
			if cnt == 0 {
				return nil, fmt.Errorf("shard: assignment leaves shard %d of %d empty", si, s)
			}
		}
		home = append([]int(nil), opt.Assignment...)
	} else {
		home, communities, modularity = partition(g, s, opt.Seed)
	}
	partTime := time.Since(start)

	limit := opt.StalenessLimit
	if limit == 0 {
		limit = DefaultStalenessLimit
	}
	sx := &ShardedIndex{
		n:              n,
		c:              c,
		qtol:           qtol,
		home:           home,
		local:          make([]int, n),
		parts:          make([]*part, s),
		method:         opt.Reorder,
		seed:           opt.Seed,
		workers:        opt.Workers,
		stalenessLimit: limit,
		staleness:      make([]int, s),
	}
	sx.setGraph(g)
	for i := range sx.parts {
		sx.parts[i] = &part{}
	}
	for u := 0; u < n; u++ {
		p := sx.parts[home[u]]
		sx.local[u] = len(p.nodes)
		p.nodes = append(p.nodes, u)
	}

	cutEdges, cutW, totalW := sx.fillCuts(g, nil)

	all := make([]int, s)
	for si := range all {
		all[si] = si
	}
	tBuild := time.Now()
	cpu, err := sx.buildParts(g, all, nil, opt.Workers)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(tBuild)

	nnz := 0
	sizes := make([]int, s)
	for i, p := range sx.parts {
		sizes[i] = len(p.nodes)
		nnz += p.ix.Stats().NNZInverse
	}
	frac := 0.0
	if totalW > 0 {
		frac = cutW / totalW
	}
	sx.stats = BuildStats{
		Shards:        s,
		PartitionTime: partTime,
		BuildTime:     buildTime,
		ShardCPUTime:  cpu,
		Sizes:         sizes,
		CutEdges:      cutEdges,
		CutWeightFrac: frac,
		NNZInverse:    nnz,
		Communities:   communities,
		Modularity:    modularity,
	}
	return sx, nil
}

// buildParts builds the given shards' indexes across a worker pool and
// reports the summed per-shard CPU time. With several shards in flight
// the pool supplies the parallelism, so each individual build inverts
// its factors single-threaded; a lone shard hands the full worker
// budget to the factor inversion instead. Build (every shard) and
// Apply (the dirty set) share this path, which is what keeps an
// incrementally rebuilt block bit-identical to a from-scratch one:
// prev[si], when prev is non-nil, is shard si's part of the previous
// epoch, or nil, and is only ever a source of columns to copy.
func (sx *ShardedIndex) buildParts(g *graph.Graph, shards []int, prev []*part, workers int) (cpu time.Duration, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	innerWorkers := 1
	if len(shards) == 1 {
		innerWorkers = workers
	}
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		mu       sync.Mutex
		firstErr error
	)
	for _, si := range shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(si int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			var old *part
			if prev != nil {
				old = prev[si]
			}
			err := sx.buildPart(g, si, old, sx.method, sx.seed+int64(si), innerWorkers)
			mu.Lock()
			cpu += time.Since(t0)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", si, err)
			}
			mu.Unlock()
		}(si)
	}
	wg.Wait()
	return cpu, firstErr
}

// partition assigns every node to one of s balanced shards: nodes are
// ordered community-major (Louvain), then chunked contiguously, so most
// communities land intact in one shard and chunk boundaries cut few
// edges. Returns the assignment plus the community count and modularity
// for the build stats.
func partition(g *graph.Graph, s int, seed int64) (home []int, communities int, modularity float64) {
	n := g.N()
	home = make([]int, n)
	if s == 1 {
		return home, 1, 0
	}
	res := louvain.Partition(g, seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if res.Community[order[a]] != res.Community[order[b]] {
			return res.Community[order[a]] < res.Community[order[b]]
		}
		return order[a] < order[b]
	})
	// Chunk sizes n/s, the first n%s chunks one node larger.
	base, extra := n/s, n%s
	at := 0
	for si := 0; si < s; si++ {
		size := base
		if si < extra {
			size++
		}
		for j := 0; j < size; j++ {
			home[order[at]] = si
			at++
		}
	}
	return home, res.K, res.Q
}

// fillCuts recomputes the outgoing cut-edge lists (probabilities
// pre-scaled by (1-c)) of the shards marked in mask — nil meaning every
// shard — and reports global cut statistics, which are always re-summed
// from the graph. Parts outside the mask are never written, so the
// update path can hand shared (old-epoch) part structs to the new index
// and patch only the shards whose cuts actually changed.
func (sx *ShardedIndex) fillCuts(g *graph.Graph, mask []bool) (cutEdges int, cutW, totalW float64) {
	patched := func(si int) bool { return mask == nil || mask[si] }
	for si, p := range sx.parts {
		if patched(si) {
			p.cuts = nil
		}
	}
	for v := 0; v < sx.n; v++ {
		sv := sx.home[v]
		out := g.OutWeightSum(v)
		g.OutNeighbors(v, func(u int, w float64) {
			totalW += w
			if sx.home[u] != sv {
				cutEdges++
				cutW += w
				if patched(sv) {
					p := sx.parts[sv]
					p.cuts = append(p.cuts, cutEdge{
						src:      sx.local[v],
						dstShard: sx.home[u],
						dst:      sx.local[u],
						w:        (1 - sx.c) * w / out,
					})
				}
			}
		})
	}
	for si, p := range sx.parts {
		if !patched(si) {
			continue
		}
		sort.SliceStable(p.cuts, func(a, b int) bool { return p.cuts[a].src < p.cuts[b].src })
		p.indexCuts()
	}
	return cutEdges, cutW, totalW
}

// buildPart constructs shard si's graph and K-dash index. The shard graph
// is the induced subgraph plus, when the shard has outgoing cut weight, a
// ghost sink absorbing it — so every column keeps its *global*
// normalisation and the factorized matrix is exactly the diagonal block
// of W = I - (1-c)A restricted to the shard. The block is ordered by its
// owned subgraph and its cut-owning nodes (reorder.ComputeBlock), from
// the part's cached communities when the caller left them in place. old,
// when non-nil, is the shard's part of the previous epoch, over the same
// node list: its index, if open, lends the rebuild every inverse column
// the changed columns do not reach.
func (sx *ShardedIndex) buildPart(g *graph.Graph, si int, old *part, method reorder.Method, seed int64, workers int) error {
	p := sx.parts[si]
	ns := len(p.nodes)
	leak := make([]float64, ns)
	hasLeak := false
	for lv, v := range p.nodes {
		g.OutNeighbors(v, func(u int, w float64) {
			if sx.home[u] != si {
				leak[lv] += w
				hasLeak = true
			}
		})
	}
	if sx.factorless {
		// Coordinator-side index: the placement map, cut lists and sink
		// flags are all the local push bookkeeping needs — the factor
		// solves run on workers, so the refactorization is skipped and
		// p.ix stays nil.
		p.sink = hasLeak
		return nil
	}
	total := ns
	if hasLeak {
		total++ // ghost sink at local id ns
	}
	b := graph.NewBuilder(total)
	cut := make([]bool, ns)
	for lv, v := range p.nodes {
		var err error
		g.OutNeighbors(v, func(u int, w float64) {
			if err == nil && sx.home[u] == si {
				err = b.AddEdge(lv, sx.local[u], w)
			}
		})
		if err != nil {
			return err
		}
		if leak[lv] > 0 {
			cut[lv] = true
			if err := b.AddEdge(lv, ns, leak[lv]); err != nil {
				return err
			}
		}
	}
	var prev *core.Index
	if old != nil {
		prev = old.tryIndex()
	}
	ix, communities, err := core.BuildBlock(b.Build(), core.BuildOptions{
		Restart: sx.c,
		Reorder: method,
		Seed:    seed,
		Workers: workers,
	}, reorder.Block{Owned: ns, Cut: cut, Communities: p.communities}, prev)
	if err != nil {
		return err
	}
	// The block's own ghost graph is never replayed — updates rebuild
	// dirty blocks from the partition-level snapshot (sx.g) — so keeping
	// it would pin a second full copy of the adjacency across the parts.
	ix.ReleaseGraph()
	p.ix = ix
	p.sink = hasLeak
	p.communities = communities
	return nil
}

// N reports the number of indexed nodes.
func (sx *ShardedIndex) N() int { return sx.n }

// Restart reports the restart probability c the index was built with.
func (sx *ShardedIndex) Restart() float64 { return sx.c }

// Shards reports the number of partitions.
func (sx *ShardedIndex) Shards() int { return len(sx.parts) }

// HomeShard reports which shard owns node u.
func (sx *ShardedIndex) HomeShard(u int) int { return sx.home[u] }

// Stats reports the partition-parallel build statistics.
func (sx *ShardedIndex) Stats() BuildStats { return sx.stats }

// OpenAll forces every deferred shard open, surfacing the first failure
// as an ordinary error. Eager loads run it so a broken directory fails
// at Load rather than mid-query; it is also the warm-up hook for
// operators who want the whole index resident before taking traffic.
func (sx *ShardedIndex) OpenAll() error {
	for si, p := range sx.parts {
		if err := p.openIndex(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// Close releases every opened shard's off-heap backing, its sealed
// copy, at once. It is optional: each shard's container
// is released when the last epoch using it becomes unreachable, so a
// retired epoch needs no Close, and neither does a dropped successor.
// After Close, neither this index nor any epoch sharing its opened
// shards may be queried; built shards are on the Go heap and close as a
// no-op.
func (sx *ShardedIndex) Close() error {
	var first error
	for _, p := range sx.parts {
		if ix := p.tryIndex(); ix != nil {
			if err := ix.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
