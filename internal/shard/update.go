package shard

// Incremental updates. The partitioned design doubles as an update
// isolation mechanism: an edge change only alters the *source* node's
// column of the paper's matrix W = I - (1-c)A (its out-normalisation
// and targets), and under the ghost-sink construction that column lives
// entirely inside the source's home shard block plus that shard's
// outgoing cut list. Apply therefore refactorizes only the owning
// shards of a batch's edge sources — one LU block per dirty shard,
// built through the same worker pool and buildPart as a from-scratch
// Build — patches those shards' cut lists, and shares every untouched
// part (its core.Index, node list and cuts) with the previous epoch by
// pointer.
//
// Apply is functional: the receiver is never modified and the returned
// successor is a fresh immutable ShardedIndex, so pooled in-flight
// queries on the old epoch never observe a half-applied update. The
// successor shares the receiver's vector pool unless a part outgrew its
// vectors (a node insertion or a first cut edge's sink row): then it
// gets a fresh pool sized to its longest part. A
// shard rebuilt by Apply goes through the one block build Build runs
// (buildPart, core.BuildBlock) with the same per-shard seed, handed
// the shard's previous part as an optional source: when the node list
// is unchanged its inverse columns that the changed columns of W do
// not reach are copied instead of solved, and when no edge op fell
// inside the shard its Louvain communities are reused, the block
// ordering depending on the owned subgraph alone. Neither changes a
// bit, so the successor is bit-identical to Build(updatedGraph,
// Options{Assignment: successor.Assignment(), ...}) — the property the
// differential harness pins down, while TestApplyReusePath pins that
// the reuse happens.
//
// Node insertion appends to the least-loaded shard and bumps that
// shard's staleness counter; past the staleness limit the shard is
// re-partitioned locally (each of its nodes re-homed to the shard it is
// most strongly connected to), which rebuilds the affected blocks and
// re-collects every cut list.

import (
	"fmt"
	"slices"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
)

// UpdateStats reports the work one Apply performed.
type UpdateStats struct {
	EdgesAdded   int
	EdgesRemoved int
	NodesAdded   int
	CutCrossing  int // edge ops whose endpoints live in different shards

	ShardsRebuilt int   // LU blocks refactorized
	DirtyShards   []int // ids of the refactorized shards, ascending
	FullRebuild   bool  // every shard was refactorized: no shard was shared
	CutsPatched   int   // shards whose outgoing cut lists were recomputed
	Repartitioned bool  // a staleness limit triggered local re-partitioning
	NodesMoved    int   // nodes re-homed by the re-partitioning

	// Rebuilt shards that ordered their block from their previous
	// epoch's Louvain communities instead of running Louvain, and the
	// rebuilt blocks' inverse columns (of L^-1 and U^-1 together)
	// copied from the previous epoch and solved.
	CommunitiesReused int
	ColumnsReused     int
	ColumnsSolved     int

	Epoch     int           // the successor's epoch number
	GraphTime time.Duration // applying the delta to the graph snapshot and finding its global Amax
	BuildTime time.Duration // wall clock of the shard rebuilds (worker pool)
	// The rebuilt shards' core.BuildStats stage times, summed: where
	// BuildTime went (CPU-like — shards rebuild in parallel).
	ReorderTime   time.Duration
	FactorizeTime time.Duration
	InvertTime    time.Duration
}

// Graph returns the current graph snapshot, opening a lazily loaded
// one on first use. It returns nil only for a deferred snapshot whose
// open failed, which queries, Apply and Save report as an error.
func (sx *ShardedIndex) Graph() *graph.Graph {
	sx.ensureGraph()
	return sx.g
}

// ensureGraph forces a deferred graph-snapshot open (and the search
// tables built from it), once. A failure is a core.ErrUnavailable: the
// snapshot is index data the directory promised and could not deliver.
func (sx *ShardedIndex) ensureGraph() error {
	// gLoad is written once at load time and never mutated afterwards,
	// so this read is race-free alongside concurrent ensureGraph calls.
	if sx.gLoad != nil {
		sx.gOnce.Do(func() {
			g, err := sx.gLoad()
			if err != nil {
				sx.gErr = fmt.Errorf("%w: %w", core.ErrUnavailable, err)
				return
			}
			sx.setGraph(g)
			sx.gDone.Store(true)
		})
	}
	return sx.gErr
}

// Epoch reports how many Apply steps produced this index: 0 for a
// fresh build, incrementing along the successor chain.
func (sx *ShardedIndex) Epoch() int { return sx.epoch }

// WALSeq reports the last WAL sequence number this index's snapshot
// covers — 0 when the index never ran under a WAL (replay everything).
func (sx *ShardedIndex) WALSeq() uint64 { return sx.walSeq }

// Assignment returns a copy of the node -> shard map. Feeding it to
// Build via Options.Assignment on the updated graph reproduces this
// index bit-for-bit — the oracle the differential tests rebuild.
//
//kdash:testonly
func (sx *ShardedIndex) Assignment() []int {
	out := make([]int, len(sx.home))
	for u, si := range sx.home {
		out[u] = int(si)
	}
	return out
}

// Apply returns a successor index with the batch absorbed, leaving the
// receiver untouched (queries against it remain valid and exact for
// the old graph). Only the shards owning a changed column are
// refactorized; everything else is shared with the receiver.
func (sx *ShardedIndex) Apply(batch *graph.Delta) (*ShardedIndex, UpdateStats, error) {
	var us UpdateStats
	if err := sx.ensureGraph(); err != nil {
		return nil, us, fmt.Errorf("shard: loading graph snapshot: %w", err)
	}
	// graph.Apply splices the touched out-rows into a copy of the CSR
	// arrays, and GraphBounds finds the successor's global Amax in one
	// pass over them; every other bound is read from a node's out-row
	// when the rank visits it, so the stage keeps no per-node table. The
	// graph is array for array what graph.Builder makes of the updated
	// edge set — the foundation of the bit-identity contract.
	t0 := time.Now()
	newG, err := sx.g.Apply(batch)
	if err != nil {
		return nil, us, err
	}
	bounds := core.GraphBounds(newG, sx.c)
	us.GraphTime = time.Since(t0)
	us.EdgesAdded, us.EdgesRemoved, us.NodesAdded = batch.Counts()

	s := len(sx.parts)
	n2 := newG.N()

	// Extend the assignment: every inserted node goes to the currently
	// least-loaded shard (ties to the lowest shard id) and bumps that
	// shard's staleness. A batch that inserts no node shares the
	// parent's assignment until a re-partition writes it.
	home2 := sx.home
	if n2 > sx.n {
		home2 = make([]int32, n2)
		copy(home2, sx.home)
	}
	staleness2 := append([]int(nil), sx.staleness...)
	sizes := make([]int, s)
	for si, p := range sx.parts {
		sizes[si] = len(p.nodes)
	}
	for u := sx.n; u < n2; u++ {
		best := 0
		for si := 1; si < s; si++ {
			if sizes[si] < sizes[best] {
				best = si
			}
		}
		home2[u] = int32(best)
		sizes[best]++
		staleness2[best]++
	}

	// Dirty shards: the home of every edge op's source column, plus
	// every shard that received an inserted node (its node list and
	// local-id space grew). An op inside one shard also changes that
	// shard's owned subgraph, which its communities were computed on.
	rebuild := make([]bool, s)
	inside := make([]bool, s)
	for _, e := range batch.Edges() {
		rebuild[home2[e.From]] = true
		if home2[e.From] != home2[e.To] {
			us.CutCrossing++
		} else {
			inside[home2[e.From]] = true
		}
	}
	for u := sx.n; u < n2; u++ {
		rebuild[home2[u]] = true
	}

	// Staleness check: re-home the nodes of any shard past its limit.
	if sx.stalenessLimit >= 0 {
		for si := 0; si < s; si++ {
			if staleness2[si] <= sx.stalenessLimit {
				continue
			}
			if n2 == sx.n && !us.Repartitioned {
				home2 = slices.Clone(home2) // still the parent's
			}
			moved := repartitionLocal(newG, home2, si, s)
			us.NodesMoved += len(moved)
			us.Repartitioned = true
			staleness2[si] = 0
			rebuild[si] = true
			for _, dst := range moved {
				rebuild[dst] = true
			}
		}
	}

	// Assemble the successor. Parts outside the rebuild set are shared
	// by pointer — their node lists, indexes and cut lists are all
	// unchanged (an edge change only rewrites its source shard's block
	// and cuts; incoming cut edges live in the *source* shard's list) —
	// unless a re-partition moved nodes, which shifts local ids and
	// forces every cut list to be re-targeted.
	sx2 := &ShardedIndex{
		n:              n2,
		c:              sx.c,
		qtol:           sx.qtol,
		home:           home2,
		local:          sx.local,
		parts:          make([]*part, s),
		g:              newG,
		bounds:         bounds,
		method:         sx.method,
		seed:           sx.seed,
		workers:        sx.workers,
		stalenessLimit: sx.stalenessLimit,
		staleness:      staleness2,
		epoch:          sx.epoch + 1,
		factorless:     sx.factorless, // remote is deliberately not carried: the coordinator rebinds per epoch
	}
	if n2 == sx.n && !us.Repartitioned {
		sx2.homeBack = sx.homeBack // home2 is still the parent's
	}
	cutMask := make([]bool, s)
	for si := 0; si < s; si++ {
		if rebuild[si] {
			// The count carries over only for a factorless coordinator,
			// which never learns a rebuilt block's nnz; a real rebuild
			// reports its new index's.
			sx2.parts[si] = &part{nnzHint: sx.parts[si].nnzInverse()}
			cutMask[si] = true
			continue
		}
		if us.Repartitioned {
			// Index unchanged, but cut targets' local ids may have
			// shifted: fresh part sharing the (possibly still deferred)
			// index, cuts redone below via the mask.
			sx2.parts[si] = sx.parts[si].share()
			cutMask[si] = true
			continue
		}
		sx2.parts[si] = sx.parts[si]
	}
	// Local ids: shared shards keep theirs (node sets unchanged, same
	// ascending-global-id rule); rebuilt shards refill by that rule. A
	// batch that inserts and re-homes no node changes no node set, so
	// the local ids and node lists carry over whole.
	if n2 == sx.n && !us.Repartitioned {
		for si, p := range sx2.parts {
			if rebuild[si] {
				p.nodes = sx.parts[si].nodes
			}
		}
	} else {
		clear(sizes)
		for _, si := range home2 {
			sizes[si]++
		}
		sx2.local = sx2.placeNodes(sizes, rebuild)
	}
	for si := 0; si < s; si++ {
		if len(sx2.parts[si].nodes) == 0 {
			// Unreachable by construction (repartitionLocal never empties
			// a shard and insertion only appends), but a corrupt state
			// must fail loudly rather than build a broken index.
			return nil, us, fmt.Errorf("shard: update would leave shard %d empty", si)
		}
	}

	// Patch the cut lists of every shard whose outgoing cuts changed and
	// refresh the global cut statistics.
	cutEdges, cutW, totalW := sx2.fillCuts(newG, cutMask)
	for _, m := range cutMask {
		if m {
			us.CutsPatched++
		}
	}

	// Refactorize the dirty blocks through the same worker-pool path a
	// from-scratch Build runs (buildParts), which is what keeps the
	// successor bit-identical to a pinned-assignment rebuild. A dirty
	// shard over the same node list rebuilds from its previous part:
	// its communities too, when no op fell inside it, and its inverse
	// columns the changed ones do not reach, which it finds by re-forming
	// the previous block's A from this epoch's parent graph.
	dirty := make([]int, 0, s)
	prev := make([]*part, s)
	for si := 0; si < s; si++ {
		if !rebuild[si] {
			continue
		}
		dirty = append(dirty, si)
		old := sx.parts[si]
		if !slices.Equal(old.nodes, sx2.parts[si].nodes) {
			continue
		}
		prev[si] = old
		if inside[si] {
			continue
		}
		if ix := old.tryIndex(); ix != nil {
			if comm := ix.Communities(); comm != nil {
				sx2.parts[si].communities = comm
				us.CommunitiesReused++
			}
		}
	}
	tBuild := time.Now()
	cpu, err := sx2.buildParts(newG, dirty, prev, sx.g, sx.workers)
	if err != nil {
		return nil, us, err
	}
	us.BuildTime = time.Since(tBuild)
	sx2.poolVectors(sx.vecs)
	us.ShardsRebuilt = len(dirty)
	us.DirtyShards = dirty
	us.FullRebuild = len(dirty) == len(sx.parts)
	for _, si := range dirty {
		if ix := sx2.parts[si].ix; ix != nil { // nil on a factorless coordinator
			st := ix.Stats()
			us.ReorderTime += st.ReorderTime
			us.FactorizeTime += st.FactorizeTime
			us.InvertTime += st.InvertTime
			us.ColumnsReused += st.ColumnsReused
			us.ColumnsSolved += st.ColumnsSolved
		}
	}

	nnz := 0
	newSizes := make([]int, s)
	for si, p := range sx2.parts {
		newSizes[si] = len(p.nodes)
		// nnzInverse never forces a deferred shard open: unopened shared
		// parts report their manifest count, so an update against a
		// lazily opened index stays proportional to its dirty set.
		nnz += p.nnzInverse()
	}
	frac := 0.0
	if totalW > 0 {
		frac = cutW / totalW
	}
	// Successor stats: the structural fields (Sizes, cut statistics,
	// NNZInverse) and the build timings describe THIS epoch's state and
	// incremental rebuild; Communities/Modularity carry over — they
	// describe the original partitioning, which updates refine but never
	// recompute globally.
	sx2.stats = sx.stats
	sx2.stats.Sizes = newSizes
	sx2.stats.CutEdges = cutEdges
	sx2.stats.CutWeightFrac = frac
	sx2.stats.NNZInverse = nnz
	sx2.stats.BuildTime = us.BuildTime
	sx2.stats.ShardCPUTime = cpu
	sx2.stats.PartitionTime = 0
	us.Epoch = sx2.epoch
	return sx2, us, nil
}

// repartitionLocal re-homes the nodes of stale shard si to the shard
// each is most strongly connected to (summed edge weight in both
// directions; ties keep the node where it is), mutating home in place
// and returning the deduplicated destination shards. The shard is
// never emptied: the node with the largest in-shard attachment stays.
func repartitionLocal(g *graph.Graph, home []int32, si, s int) []int {
	// A view of g's out-rows, whose in-rows die with it: g keeps none.
	ptr, to := g.OutCSR()
	g, _ = graph.FromCSR(ptr, to, g.OutWeights())
	type move struct {
		node, dst int
	}
	var moves []move
	stay := 0
	attach := make([]float64, s)
	bestKeep, bestKeepAttach := -1, -1.0
	for u := 0; u < len(home); u++ {
		if int(home[u]) != si {
			continue
		}
		for i := range attach {
			attach[i] = 0
		}
		g.OutNeighbors(u, func(v int, w float64) {
			if v != u {
				attach[home[v]] += w
			}
		})
		g.InNeighbors(u, func(v int, w float64) {
			if v != u {
				attach[home[v]] += w
			}
		})
		best := si
		for cand := 0; cand < s; cand++ {
			if attach[cand] > attach[best] {
				best = cand
			}
		}
		if best == si {
			stay++
		} else {
			moves = append(moves, move{node: u, dst: best})
		}
		if attach[si] > bestKeepAttach {
			bestKeep, bestKeepAttach = u, attach[si]
		}
	}
	if stay == 0 && len(moves) > 0 {
		// Keep the most attached node so the shard never empties.
		kept := moves[:0]
		for _, m := range moves {
			if m.node != bestKeep {
				kept = append(kept, m)
			}
		}
		moves = kept
	}
	seen := make([]bool, s)
	var dsts []int
	for _, m := range moves {
		home[m.node] = int32(m.dst)
		if !seen[m.dst] {
			seen[m.dst] = true
			dsts = append(dsts, m.dst)
		}
	}
	return dsts
}
