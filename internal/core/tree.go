package core

// Algorithm 4 — the breadth-first search with Definition 2's incremental
// estimate and Lemma 2's early termination — and Figure 9's randomly
// rooted visit, run by the sharded index over its graph snapshot with
// proximities from the cross-shard push.

import (
	"math"

	"kdash/internal/graph"
	"kdash/internal/topk"
)

// Bounds holds what Definitions 1–2 read: Amax (the largest element of
// the column-normalised adjacency A), Amax(v) (the largest element of
// column v, v's largest out-transition probability) and the self-loop
// weights A_uu behind c'(u), under restart probability c. It keeps only
// Amax and reads the other two from a node's out-row when the search
// visits it (row). Read-only; safe for concurrent searches.
type Bounds struct {
	c    float64
	amax float64
	g    *graph.Graph
}

// GraphBounds returns the bounds of g's column-normalised adjacency
// under restart probability c, indexed by g's node ids: Amax from one
// pass over the out-rows, and each node's Amax(v) and A_vv read from its
// out-row on visit. Column v of A is v's out-row over its weight sum,
// and row divides each weight exactly as ColumnNormalized does, so every
// value equals the one read from g.ColumnNormalized() bit for bit,
// without the copy of A.
func GraphBounds(g *graph.Graph, c float64) Bounds {
	b := Bounds{c: c, g: g}
	for v := 0; v < g.N(); v++ {
		if a, _ := b.row(v); a > b.amax {
			b.amax = a
		}
	}
	return b
}

// row returns Amax(v) and A_vv: the largest and the self-loop
// transition probability of v's out-row (0 and 0 for an all-zero
// column, as ColumnNormalized stores it).
//
//kdash:noalloc
func (b *Bounds) row(v int) (amaxV, selfV float64) {
	ptr, to := b.g.OutCSR()
	w := b.g.OutWeights()
	total := b.g.OutWeightSum(v)
	if total <= 0 {
		return 0, 0
	}
	for i := ptr[v]; i < ptr[v+1]; i++ {
		a := w[i] / total
		if a > amaxV {
			amaxV = a
		}
		if int(to[i]) == v {
			selfV = a
		}
	}
	return amaxV, selfV
}

// cPrimeOf is Definition 1's c' = (1-c) / (1 - A_uu + c*A_uu) for a
// node whose self-loop weight is a.
func (b *Bounds) cPrimeOf(a float64) float64 {
	return (1 - b.c) / (1 - a + b.c*a)
}

// estimate is Definition 2's incremental estimate over one breadth-first
// visit: t1 covers selected nodes one layer above the visited node, t2
// selected nodes on its layer, t3 the unselected remainder bounded by
// Amax. With no nodes selected yet the third term is (1 - 0) * Amax,
// which also reproduces the paper's u' = q bootstrap case after the
// first visit.
type estimate struct {
	b          *Bounds
	t1, t2, t3 float64
	layer      int
}

// enter moves the estimate to a visit on the given BFS layer; visits
// arrive in nondecreasing layer order, one layer step at a time.
func (e *estimate) enter(layer int) {
	if layer != e.layer {
		e.t1, e.t2, e.layer = e.t2, 0, layer
	}
}

// of is Definition 2's estimate for a node with self-loop weight selfU,
// visited on the current layer.
func (e *estimate) of(selfU float64) float64 { return e.b.cPrimeOf(selfU) * (e.t1 + e.t2 + e.t3) }

// selected folds a node whose proximity p was computed, and whose
// Amax(v) is amaxV, into the terms.
func (e *estimate) selected(amaxV, p float64) {
	e.t2 += p * amaxV
	e.t3 -= p * e.b.amax
	if e.t3 < 0 {
		e.t3 = 0 // guard against floating-point drift below zero
	}
}

// TreeWS is the reusable scratch of Algorithm 4 over an n-node graph:
// one breadth-first search's layers and visit marks, invalidated per
// search by bumping a generation counter instead of rewriting the
// arrays, and its queue. Layers and marks are int32 (node ids are); when
// the generation wraps, the marks are cleared once. The search is
// started (Start) apart from its visit (Search), so a caller can widen
// it layer by layer first (NextLayer) — the sharded coordinator's rank
// prefix — and the visit then continues the same BFS: nodes are expanded
// once each, in queue order, whoever asks, so the visit order is the
// BFS order either way. Not safe for concurrent use; pool it like any
// workspace.
type TreeWS struct {
	layer    []int32 // valid only where mark[u] == gen
	mark     []int32
	gen      int32
	queue    []int
	roots    int // queue[:roots] are layer 0
	expanded int // queue[:expanded] have had their out-rows walked
}

// NewTreeWS returns search scratch for an n-node graph.
func NewTreeWS(n int) *TreeWS {
	return &TreeWS{layer: make([]int32, n), mark: make([]int32, n), queue: make([]int, 0, 256)}
}

// Bytes reports the workspace's allocated size.
func (ws *TreeWS) Bytes() int64 {
	return int64(4*cap(ws.layer) + 4*cap(ws.mark) + 8*cap(ws.queue))
}

// next starts a search: it returns a generation no mark holds, clearing
// the marks when the counter wraps.
//
//kdash:noalloc
func (ws *TreeWS) next() int32 {
	if ws.gen == math.MaxInt32 {
		clear(ws.mark)
		ws.gen = 0
	}
	ws.gen++
	return ws.gen
}

// Start begins a breadth-first search with roots (sorted, distinct) as
// layer 0.
//
//kdash:noalloc
func (ws *TreeWS) Start(roots []int) {
	gen := ws.next()
	ws.queue = append(ws.queue[:0], roots...) //kdash:allow(hotalloc) grows once per workspace to the widest search
	for _, r := range roots {
		ws.mark[r] = gen
		ws.layer[r] = 0
	}
	ws.roots, ws.expanded = len(roots), 0
}

// Queue returns the nodes the search has reached, in BFS order. The
// slice is valid until the search reaches more nodes.
func (ws *TreeWS) Queue() []int { return ws.queue }

// Reached reports whether the search has reached v, and on which layer.
//
//kdash:noalloc
func (ws *TreeWS) Reached(v int) (layer int, ok bool) {
	if ws.mark[v] != ws.gen {
		return 0, false
	}
	return int(ws.layer[v]), true
}

// expand walks the out-row of the first queued node not expanded yet,
// queueing its unreached out-neighbours one layer below it.
//
//kdash:noalloc
func (ws *TreeWS) expand(outPtr []int, outTo []int32) {
	u := ws.queue[ws.expanded]
	ws.expanded++
	gen, l := ws.gen, ws.layer[u]+1
	for _, id := range outTo[outPtr[u]:outPtr[u+1]] {
		if v := int(id); ws.mark[v] != gen {
			ws.mark[v] = gen
			ws.layer[v] = l
			ws.queue = append(ws.queue, v) //kdash:allow(hotalloc) grows once per workspace to the widest search
		}
	}
}

// NextLayer expands every queued node before end, which must close a
// whole BFS layer (the roots' end, or a NextLayer result), and returns
// where the layer after it ends in the queue: end itself when that
// layer is empty.
//
//kdash:noalloc
func (ws *TreeWS) NextLayer(outPtr []int, outTo []int32, end int) int {
	for ws.expanded < end {
		ws.expand(outPtr, outTo)
	}
	next := ws.layer[ws.queue[end-1]] + 1
	for end < len(ws.queue) && ws.layer[ws.queue[end]] == next {
		end++
	}
	return end
}

// Search is Algorithm 4: it visits the nodes of the search Start began
// in breadth-first order over an out-adjacency in CSR form — node v's
// out-neighbours are outTo[outPtr[v]:outPtr[v+1]], a graph snapshot's
// out-rows — scores each visited node and offers every
// positive score of a non-excluded node to heap. Excluded nodes are
// still scored: their mass is part of the estimate. score may widen the
// search itself (NextLayer) over the same adjacency.
//
// With prune set, the search stops at the first non-root node whose
// Definition 2 estimate falls below a full heap's threshold (Lemma 2).
// That is exact whenever every non-root score obeys
// score(u) <= (1-c)·Σ_v A_uv score(v) and the scores sum to at most 1:
// t1+t2+t3 then bounds the sum (t3 counts u's own, unselected, mass),
// the terms never grow along the visit, and c'(u) >= 1-c, so the
// estimate bounds every node not yet visited. Exact proximities obey
// both, and so does the sharded index's partial solution x, which
// satisfies x = c·r - res + (1-c)Ax with a nonnegative residual res and
// x <= p.
//
// The tree is expanded lazily — a node's out-edges are read only when
// the node is visited — so an early-terminated search costs O(visited
// nodes + their edges), not O(n + m), and the visit order is identical
// to a fully materialised BFS.
//
//kdash:noalloc
//kdash:deterministic
func (ws *TreeWS) Search(b *Bounds, outPtr []int, outTo []int32, score func(u int) float64, heap *topk.Heap, exclude map[int]bool, prune bool, stats *SearchStats) {
	est := estimate{b: b, t3: b.amax}
	for head := 0; head < len(ws.queue); head++ {
		u := ws.queue[head]
		stats.Visited++
		est.enter(int(ws.layer[u]))
		amaxU, selfU := b.row(u)
		// Root nodes estimate to 1 (Definition 1) and are always scored.
		// The heap-full guard keeps floating-point noise in a ~zero
		// estimate from truncating the candidate set before K nodes have
		// been seen.
		if prune && head >= ws.roots && heap.Len() == heap.K() && est.of(selfU) < heap.Threshold() {
			stats.Terminated = true
			return
		}
		p := score(u)
		stats.ProximityComputations++
		if p > 0 && !exclude[u] {
			heap.Push(u, p)
		}
		est.selected(amaxU, p)
		// Discover u's out-neighbours (lazy BFS expansion), unless a
		// widening already has.
		for ws.expanded <= head {
			ws.expand(outPtr, outTo)
		}
	}
}

// SearchAnyRoot is the visit behind Figure 9's randomly rooted series:
// it visits every node of the out-adjacency — breadth-first from root,
// then each node that search did not reach, in ascending id — and
// scores a node unless the layer-free upper bound
//
//	p̄_u = c'(u) · ( Σ_{v∈Vs} p_v·Amax(v) + (1 - Σ_{v∈Vs} p_v)·Amax )
//
// already falls below a full heap's threshold (with prune set). The
// bound holds in any visit order — the first sum bounds the selected
// in-neighbours' contributions, the second everything else — but it
// never proves the unvisited nodes out, so the visit only skips nodes
// and never terminates early: why a random root costs far more
// proximity computations than the query's own tree. The query node q
// estimates to 1 and is always scored; offers and exclusions are
// Search's.
//
//kdash:noalloc
//kdash:deterministic
func (ws *TreeWS) SearchAnyRoot(b *Bounds, outPtr []int, outTo []int32, root, q int, score func(u int) float64, heap *topk.Heap, exclude map[int]bool, prune bool, stats *SearchStats) {
	var sumPA, sumP float64 // Σ p_v·Amax(v) and Σ p_v over the scored nodes
	visit := func(u int) {
		stats.Visited++
		amaxU, selfU := b.row(u)
		est := 1.0
		if u != q {
			est = b.cPrimeOf(selfU) * (sumPA + max(1-sumP, 0)*b.amax)
		}
		if prune && heap.Len() == heap.K() && est < heap.Threshold() {
			return
		}
		p := score(u)
		stats.ProximityComputations++
		if p > 0 && !exclude[u] {
			heap.Push(u, p)
		}
		sumPA += p * amaxU
		sumP += p
	}
	roots := [1]int{root}
	ws.Start(roots[:])
	for head := 0; head < len(ws.queue); head++ {
		visit(ws.queue[head])
		ws.expand(outPtr, outTo)
	}
	for u := 0; u < len(outPtr)-1; u++ {
		if ws.mark[u] != ws.gen {
			visit(u)
		}
	}
}
