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
// queries on the old epoch never observe a half-applied update. A
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
	GraphTime time.Duration // applying the delta to the graph snapshot and rebuilding its search tables
	BuildTime time.Duration // wall clock of the shard rebuilds (worker pool)
	// The rebuilt shards' core.BuildStats stage times, summed: where
	// BuildTime went (CPU-like — shards rebuild in parallel).
	ReorderTime   time.Duration
	FactorizeTime time.Duration
	InvertTime    time.Duration
}

// Graph returns the current graph snapshot, parsing a lazily loaded
// one on first use. It returns nil only for a deferred snapshot whose
// parse failed, which queries, Apply and Save report as an error.
func (sx *ShardedIndex) Graph() *graph.Graph {
	sx.ensureGraph()
	return sx.g
}

// ensureGraph forces a deferred graph-snapshot parse (and the search
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
func (sx *ShardedIndex) Assignment() []int {
	return append([]int(nil), sx.home...)
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
	// graph.Apply splices the touched rows into a copy of the CSR arrays
	// and re-derives the in-lists: ~6 ms at the bench scale (50k nodes,
	// 147k edges; 2-core Xeon), ~12 % of a two-edge Apply's wall time
	// once the rebuilds reuse the previous blocks. Its result is array for
	// array what graph.Builder makes of the updated edge set, so the
	// snapshot is indistinguishable from a freshly built graph — the
	// foundation of the bit-identity contract. The successor's search
	// tables are rebuilt from it here, so no query ever builds them.
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
	// shard's staleness.
	home2 := make([]int, n2)
	copy(home2, sx.home)
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
		home2[u] = best
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
		local:          make([]int, n2),
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
	// ascending-global-id rule); rebuilt shards refill by that rule.
	for u := 0; u < n2; u++ {
		si := home2[u]
		if rebuild[si] {
			p := sx2.parts[si]
			sx2.local[u] = len(p.nodes)
			p.nodes = append(p.nodes, u)
		} else {
			sx2.local[u] = sx.local[u]
		}
	}
	for si := 0; si < s; si++ {
		if len(sx2.parts[si].nodes) == 0 {
			// Unreachable by construction (repartitionLocal never empties
			// a shard and insertion only appends), but a corrupt state
			// must fail loudly rather than build a broken index.
			return nil, us, fmt.Errorf("shard: update would leave shard %d empty", si)
		}
	}

	// Refactorize the dirty blocks through the same worker-pool path a
	// from-scratch Build runs (buildParts), which is what keeps the
	// successor bit-identical to a pinned-assignment rebuild. A dirty
	// shard over the same node list rebuilds from its previous part:
	// its communities too, when no op fell inside it, and its inverse
	// columns the changed ones do not reach.
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
		if !inside[si] && old.communities != nil {
			sx2.parts[si].communities = old.communities
			us.CommunitiesReused++
		}
	}
	tBuild := time.Now()
	cpu, err := sx2.buildParts(newG, dirty, prev, sx.workers)
	if err != nil {
		return nil, us, err
	}
	us.BuildTime = time.Since(tBuild)
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

	// Patch the cut lists of every shard whose outgoing cuts changed and
	// refresh the global cut statistics.
	cutEdges, cutW, totalW := sx2.fillCuts(newG, cutMask)
	for _, m := range cutMask {
		if m {
			us.CutsPatched++
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
func repartitionLocal(g *graph.Graph, home []int, si, s int) []int {
	type move struct {
		node, dst int
	}
	var moves []move
	stay := 0
	attach := make([]float64, s)
	bestKeep, bestKeepAttach := -1, -1.0
	for u := 0; u < len(home); u++ {
		if home[u] != si {
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
		home[m.node] = m.dst
		if !seen[m.dst] {
			seen[m.dst] = true
			dsts = append(dsts, m.dst)
		}
	}
	return dsts
}
