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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/louvain"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
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
// Its source is the cut row whose span lists it (part.cutRowPtr). The
// push scatters along it on every solve, so it names its destination
// by shard and local id, not by the global id partition.idx stores.
type cutEdge struct {
	dstShard int32
	dst      int32   // local id in the destination shard
	w        float64 // (1-c) * A[dst, src] under the global normalisation
}

// part is one shard: the nodes it owns, its K-dash index over the induced
// subgraph (+ ghost sink when the shard has outgoing cut weight), and its
// outgoing cut edges grouped by source node, indexed by cut row.
//
// The index itself may be deferred: a lazily opened directory (see
// LoadOptions.Lazy) leaves ix nil and sets lazy, so the shard file is
// only opened when a query first pushes mass into the shard — reach the
// index through index() (or tryIndex for observability paths that must
// not force an open), never the field.
type part struct {
	nodes     []int32 // local -> global id
	ix        *core.Index
	lazy      *lazyIndex // non-nil: the index opens on first use
	sink      bool       // index has one extra sink node appended
	cuts      []cutEdge  // sorted by source
	cutRows   []int      // local nodes owning cut edges, ascending
	cutRowPtr []int      // the cuts of cutRows[k] are cuts[cutRowPtr[k]:cutRowPtr[k+1]]
	nnzHint   int        // the manifest's per-shard nnz, so stats need no open

	// communities, set by Apply before a rebuild, is the previous
	// epoch's Louvain result for the block (its index keeps the one its
	// ordering used, and saves it), handed to the rebuild when the
	// owned subgraph is unchanged so it orders without running Louvain.
	// buildPart consumes it.
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

// partitionBacking is the partition container an opened directory's
// assignment aliases. Every epoch sharing that assignment points to it,
// so the container is released once none is reachable, or at once by
// Close.
type partitionBacking struct{ f *mmapio.File }

// newPartitionBacking keeps f alive for what will alias it.
func newPartitionBacking(f *mmapio.File) *partitionBacking {
	b := &partitionBacking{f: f}
	runtime.AddCleanup(b, func(f *mmapio.File) { f.Close() }, f)
	return b
}

// share returns a copy of the part for a successor epoch that did not
// rebuild it: the node list, index (open or deferred — the lazyIndex is
// shared by pointer) and cut lists carry over.
func (p *part) share() *part {
	return &part{nodes: p.nodes, ix: p.ix, lazy: p.lazy, sink: p.sink, nnzHint: p.nnzHint, cuts: p.cuts, cutRows: p.cutRows, cutRowPtr: p.cutRowPtr}
}

// cutRowsUpper returns the packed U^{-1} rows of the cut rows of the
// part, whose open index is ix.
func (p *part) cutRowsUpper(ix *core.Index) *lu.UpperRows {
	p.cutUpperOnce.Do(func() { p.cutUpper = ix.PackUpperRows(p.cutRows) })
	return p.cutUpper
}

// addCut appends a cut edge out of local row src, which must not
// precede the last cut's source, to a cut list whose cutRowPtr starts
// as [0].
func (p *part) addCut(src int, e cutEdge) {
	p.cuts = append(p.cuts, e)
	if k := len(p.cutRows); k > 0 && p.cutRows[k-1] == src {
		p.cutRowPtr[k]++
		return
	}
	p.cutRows = append(p.cutRows, src)
	p.cutRowPtr = append(p.cutRowPtr, len(p.cuts))
}

// rowCuts returns the cut edges of the k-th cut row.
//
//kdash:noalloc
func (p *part) rowCuts(k int) []cutEdge { return p.cuts[p.cutRowPtr[k]:p.cutRowPtr[k+1]] }

// ShardedIndex is a partitioned K-dash index. Like core.Index it is
// immutable after construction and safe for concurrent queries; dynamic
// updates are functional (Apply returns a successor index), so an epoch
// in a reader's hands never changes underneath it.
type ShardedIndex struct {
	n     int
	c     float64
	qtol  float64
	home  []int32 // global node -> shard
	local []int32 // global node -> local id within its shard
	// homeBack, when non-nil, is the partition container home aliases:
	// an opened directory's, carried by Apply successors that share the
	// assignment.
	homeBack *partitionBacking
	parts    []*part
	stats    BuildStats

	// The current graph snapshot — what the rank searches (with bounds,
	// Definition 2's global Amax, found once per epoch by setGraph; a
	// node's own bounds are read from its out-row on visit) and
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

	// Write-ahead-log position (the manifest's walSeq): the last WAL
	// sequence number folded into these factors. Set by
	// SaveWALSnapshot; zero for indexes that never ran under a WAL. Not
	// carried across Apply — the compactor stamps each snapshot
	// explicitly with the position it knows it covers.
	walSeq uint64

	// gOnce/gLoad defer the graph snapshot's open for lazily opened
	// directories to the first query (or Apply, or Save) that needs it,
	// so a lazy open (every worker's) never reads it. ensureGraph forces
	// it; gErr holds a deferred open's failure.
	gOnce sync.Once
	gLoad func() (*graph.Graph, error)
	gErr  error
	gDone atomic.Bool // set once a deferred open has installed sx.g

	// pushPool recycles single-query states (solve records, the rank's
	// BFS workspace) across queries, keeping at most GOMAXPROCS idle;
	// every request checks a private instance out, so the pool is the
	// concurrent-safe source of per-query scratch and the steady-state
	// query path allocates only its result set. pushStates counts the
	// states ever created. vecs is the pool of shard-sized vectors they
	// borrow, shared along the epochs its vectors fit (poolVectors).
	pushPool   freeList[*pushState]
	pushStates atomic.Int64
	vecs       *vecPool

	// Distributed-serving state (see remote.go). factorless marks a
	// coordinator-side index: buildPart skips the factorization (and
	// lazy opens never happen because every solve routes remotely), so
	// the index holds only the placement map, cut lists and graph
	// snapshot. remote, when set, routes every per-shard factor solve
	// through a RemoteSolver; it is not carried across Apply — the
	// coordinator rebinds a per-epoch solver on each successor.
	factorless bool
	remote     RemoteSolver

	// solveCounts tracks cumulative factor solves per shard — the
	// traffic-weighted counterpart of shardsOpened, exposed through
	// Statz (and from there /metrics) so operators can see which
	// shards queries actually land on. Built lazily on first use; the
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
// Definition 2 bounds the rank searches it with — one pass for the
// global Amax, no per-node table — so no query ever derives them.
func (sx *ShardedIndex) setGraph(g *graph.Graph) {
	sx.g = g
	sx.bounds = core.GraphBounds(g, sx.c)
}

// openedGraph returns the graph snapshot if it is in place — built,
// opened eagerly, or opened lazily by an earlier query — and nil while
// a lazy open is still pending or failed, without forcing it.
func (sx *ShardedIndex) openedGraph() *graph.Graph {
	if sx.gLoad == nil || sx.gDone.Load() {
		return sx.g
	}
	return nil
}

// GraphBytes reports where the graph snapshot this epoch ranks over
// lives: sealed is an opened directory's graph.idx, heap the arrays of a
// graph on the Go heap (built, or an Apply successor's). Both are 0 for
// a lazy snapshot not opened yet.
func (sx *ShardedIndex) GraphBytes() (sealed, heap int64) {
	if g := sx.openedGraph(); g != nil {
		return g.SealedBytes(), g.HeapBytes()
	}
	return 0, 0
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
		home        []int32
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
		home = make([]int32, n)
		for u, si := range opt.Assignment {
			home[u] = int32(si)
			counts[si]++
		}
		if si := slices.Index(counts, 0); si >= 0 {
			return nil, fmt.Errorf("shard: assignment leaves shard %d of %d empty", si, s)
		}
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
		parts:          make([]*part, s),
		method:         opt.Reorder,
		seed:           opt.Seed,
		workers:        opt.Workers,
		stalenessLimit: limit,
		staleness:      make([]int, s),
	}
	sx.setGraph(g)
	sizes := make([]int, s)
	for _, si := range home {
		sizes[si]++
	}
	sx.local = sx.placeNodes(sizes, nil)

	cutEdges, cutW, totalW := sx.fillCuts(g, nil)

	all := make([]int, s)
	for si := range all {
		all[si] = si
	}
	tBuild := time.Now()
	cpu, err := sx.buildParts(g, all, nil, nil, opt.Workers)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(tBuild)
	sx.poolVectors(nil)

	nnz := 0
	for _, p := range sx.parts {
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

// placeNodes refills the node lists of the parts rebuild marks (nil:
// all, into fresh parts), sized by sizes, by the ascending-global-id
// rule, and returns the local ids: from the rule there, from sx.local
// elsewhere.
func (sx *ShardedIndex) placeNodes(sizes []int, rebuild []bool) []int32 {
	local := make([]int32, len(sx.home))
	for si := range sx.parts {
		if rebuild == nil {
			sx.parts[si] = &part{}
		}
		if rebuild == nil || rebuild[si] {
			sx.parts[si].nodes = make([]int32, 0, sizes[si])
		}
	}
	for u, si := range sx.home {
		if rebuild == nil || rebuild[si] {
			p := sx.parts[si]
			local[u] = int32(len(p.nodes))
			p.nodes = append(p.nodes, int32(u))
		} else {
			local[u] = sx.local[u]
		}
	}
	return local
}

// buildParts builds the given shards' indexes across a worker pool and
// reports the summed per-shard CPU time. With several shards in flight
// the pool supplies the parallelism, so each individual build inverts
// its factors single-threaded; a lone shard hands the full worker
// budget to the factor inversion instead. Build (every shard) and
// Apply (the dirty set) share this path, which is what keeps an
// incrementally rebuilt block bit-identical to a from-scratch one:
// prev[si], when prev is non-nil, is shard si's part of the previous
// epoch, or nil, and is only ever a source of columns to copy; prevG is
// the previous epoch's graph, which its block was built over.
func (sx *ShardedIndex) buildParts(g *graph.Graph, shards []int, prev []*part, prevG *graph.Graph, workers int) (cpu time.Duration, err error) {
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
			err := sx.buildPart(g, si, old, prevG, sx.method, sx.seed+int64(si), innerWorkers)
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
func partition(g *graph.Graph, s int, seed int64) (home []int32, communities int, modularity float64) {
	n := g.N()
	home = make([]int32, n)
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
			home[order[at]] = int32(si)
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
// and patch only the shards whose cuts actually changed. Nodes are
// walked in ascending order, so each list comes out sorted by source.
func (sx *ShardedIndex) fillCuts(g *graph.Graph, mask []bool) (cutEdges int, cutW, totalW float64) {
	patched := func(si int32) bool { return mask == nil || mask[si] }
	for si, p := range sx.parts {
		if patched(int32(si)) {
			p.cuts, p.cutRows, p.cutRowPtr = nil, nil, []int{0}
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
					sx.parts[sv].addCut(int(sx.local[v]), cutEdge{
						dstShard: sx.home[u],
						dst:      sx.local[u],
						w:        (1 - sx.c) * w / out,
					})
				}
			}
		})
	}
	return cutEdges, cutW, totalW
}

// buildPart constructs shard si's graph and K-dash index, after its cut
// list. The shard graph is the induced subgraph plus, when the shard
// has outgoing cut weight, a ghost sink absorbing it — so every column
// keeps its *global* normalisation and the factorized matrix is exactly
// the diagonal block of W = I - (1-c)A restricted to the shard. The
// block is ordered by its owned subgraph and its cut-owning nodes
// (reorder.ComputeBlock), from the part's cached communities when the
// caller left them in place. old, when non-nil, is the shard's part of
// the previous epoch (graph prevG), over the same node list: its index,
// if open, lends the rebuild every inverse column the changed columns
// do not reach, which the rebuild finds by reading the parent block's
// rows from prevG in place.
func (sx *ShardedIndex) buildPart(g *graph.Graph, si int, old *part, prevG *graph.Graph, method reorder.Method, seed int64, workers int) error {
	p := sx.parts[si]
	p.sink = len(p.cuts) > 0 // edge weights are positive: a cut edge leaks
	if sx.factorless {
		// Coordinator-side index: the placement map, cut lists and sink
		// flags are all the local push bookkeeping needs — the factor
		// solves run on workers, so the refactorization is skipped and
		// p.ix stays nil.
		return nil
	}
	sg, cut, err := sx.blockGraph(g, si)
	if err != nil {
		return err
	}
	var prev *core.Index
	var prevRows core.Rows // the block rows prev was built over
	if old != nil {
		if prev = old.tryIndex(); prev != nil {
			prevRows = blockRows{sx: sx, si: si, n: prev.N(), g: prevG}
		}
	}
	ix, _, err := core.BuildBlock(sg, core.BuildOptions{
		Restart: sx.c,
		Reorder: method,
		Seed:    seed,
		Workers: workers,
	}, reorder.Block{Owned: len(p.nodes), Cut: cut, Communities: p.communities}, prev, prevRows)
	if err != nil {
		return err
	}
	p.communities = nil // the index keeps the result its ordering used
	p.ix = ix
	return nil
}

// blockRows reads the n rows of shard si's block graph over g in
// place: row lv is node lv's in-shard out-edges in local ids, then, if
// it leaks, one edge to the sink (local id len(nodes)) carrying its cut
// weight summed in row order; the sink's row is empty. Over the parent
// epoch's graph and node list they are the rows its block was built on.
type blockRows struct {
	sx    *ShardedIndex
	si, n int
	g     *graph.Graph
}

// N reports the block's node count.
func (r blockRows) N() int { return r.n }

// OutNeighbors calls fn on block row lv's edges in row order.
func (r blockRows) OutNeighbors(lv int, fn func(u int, w float64)) {
	nodes := r.sx.parts[r.si].nodes
	if lv == len(nodes) {
		return // the sink's row
	}
	leak := 0.0
	r.g.OutNeighbors(int(nodes[lv]), func(u int, w float64) {
		if int(r.sx.home[u]) == r.si {
			fn(int(r.sx.local[u]), w)
		} else {
			leak += w
		}
	})
	if leak > 0 {
		fn(len(nodes), leak)
	}
}

// OutWeightSum sums block row lv's weights in row order, as
// graph.Graph's does.
func (r blockRows) OutWeightSum(lv int) float64 {
	s := 0.0
	r.OutNeighbors(lv, func(_ int, w float64) { s += w })
	return s
}

// blockGraph assembles shard si's graph from g's blockRows: one pass
// sizes the rows and marks the nodes that leak (cut: the sink edge is
// the row's last), the next fills them; a sink is there if any leaks.
func (sx *ShardedIndex) blockGraph(g *graph.Graph, si int) (*graph.Graph, []bool, error) {
	ns := len(sx.parts[si].nodes)
	rows := blockRows{sx: sx, si: si, g: g}
	ptr := make([]int, ns+2) // room for the sink's empty row
	cut := make([]bool, ns)
	for lv := 0; lv < ns; lv++ {
		rows.OutNeighbors(lv, func(u int, _ float64) {
			ptr[lv+1]++
			cut[lv] = u == ns
		})
	}
	total := ns
	if slices.Contains(cut, true) {
		total++ // ghost sink at local id ns
	}
	ptr = ptr[:total+1]
	for lv := 0; lv < total; lv++ {
		ptr[lv+1] += ptr[lv]
	}
	to := make([]int32, ptr[total])
	wt := make([]float64, ptr[total])
	for lv := 0; lv < ns; lv++ {
		at := ptr[lv]
		rows.OutNeighbors(lv, func(u int, w float64) {
			to[at], wt[at] = int32(u), w
			at++
		})
	}
	sg, err := graph.FromCSR(ptr, to, wt)
	return sg, cut, err
}

// N reports the number of indexed nodes.
func (sx *ShardedIndex) N() int { return sx.n }

// Restart reports the restart probability c the index was built with.
func (sx *ShardedIndex) Restart() float64 { return sx.c }

// Shards reports the number of partitions.
func (sx *ShardedIndex) Shards() int { return len(sx.parts) }

// HomeShard reports which shard owns node u.
func (sx *ShardedIndex) HomeShard(u int) int { return int(sx.home[u]) }

// CutWeights reports the cut between every pair of shards: w[a][b] is
// the summed weight of the cut edges from shard a into shard b. It reads
// the cut lists only, so a factorless coordinator's index answers
// without opening a shard file.
func (sx *ShardedIndex) CutWeights() [][]float64 {
	w := make([][]float64, len(sx.parts))
	for a, p := range sx.parts {
		w[a] = make([]float64, len(sx.parts))
		for _, e := range p.cuts {
			w[a][e.dstShard] += e.w
		}
	}
	return w
}

// Stats reports the partition-parallel build statistics.
func (sx *ShardedIndex) Stats() BuildStats { return sx.stats }

// PartStats reports shard si's own build statistics — its block's
// ordering, factorization and inversion — opening the shard if it is
// deferred. A one-shard index's are those of the whole graph's factors,
// the paper's Figures 5 and 6.
func (sx *ShardedIndex) PartStats(si int) (core.BuildStats, error) {
	ix, err := sx.parts[si].index()
	if err == nil && ix == nil {
		err = fmt.Errorf("shard: shard %d holds no factors (a coordinator's index)", si)
	}
	if err != nil {
		return core.BuildStats{}, err
	}
	return ix.Stats(), nil
}

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
// copy, at once, and the graph snapshot's and the partition
// container's when this epoch opened them. It
// is optional: each container is released when the last epoch using it
// becomes unreachable, so a retired epoch needs no Close, and neither
// does a dropped successor. After Close, neither this index nor any
// epoch sharing its opened shards may be queried; built shards and
// graphs are on the Go heap and close as a no-op.
func (sx *ShardedIndex) Close() error {
	var first error
	if g := sx.openedGraph(); g != nil {
		first = g.Close()
	}
	for _, p := range sx.parts {
		if ix := p.tryIndex(); ix != nil {
			if err := ix.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if sx.homeBack != nil {
		if err := sx.homeBack.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
