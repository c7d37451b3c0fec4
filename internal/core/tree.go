package core

// Algorithm 4 — the breadth-first search with Definition 2's incremental
// estimate and Lemma 2's early termination — in the one copy both
// engines run: the monolithic Index over its reordered adjacency with
// exact proximities from its own factors, and the sharded index over its
// graph snapshot with proximities from the cross-shard push.

import (
	"math"

	"kdash/internal/graph"
	"kdash/internal/sparse"
	"kdash/internal/topk"
)

// Bounds holds the per-graph tables Definitions 1–2 read: Amax (the
// largest element of the column-normalised adjacency A), Amax(v) (the
// largest element of column v, v's largest out-transition probability)
// and the self-loop weights A_uu behind c'(u), under restart probability
// c. Read-only; safe for concurrent searches.
type Bounds struct {
	c       float64
	amax    float64
	amaxCol []float64
	selfA   []float64
}

// GraphBounds builds the tables for g's column-normalised adjacency
// under restart probability c, indexed by g's node ids. It reads the
// out-rows directly — column v of A is v's out-row over its weight sum —
// and divides each weight exactly as ColumnNormalized does, so the
// tables equal adjacencyBounds(g.ColumnNormalized(), c) bit for bit
// without the copy of A.
func GraphBounds(g *graph.Graph, c float64) Bounds {
	n := g.N()
	b := Bounds{c: c, amaxCol: make([]float64, n), selfA: make([]float64, n)}
	ptr, to := g.OutCSR()
	w := g.OutWeights()
	for v := 0; v < n; v++ {
		total := g.OutWeightSum(v)
		if total <= 0 {
			continue // an all-zero column, as ColumnNormalized stores it
		}
		for i := ptr[v]; i < ptr[v+1]; i++ {
			a := w[i] / total
			if a > b.amaxCol[v] {
				b.amaxCol[v] = a
			}
			if int(to[i]) == v {
				b.selfA[v] = a
			}
		}
		if b.amaxCol[v] > b.amax {
			b.amax = b.amaxCol[v]
		}
	}
	return b
}

// adjacencyBounds builds the tables for the column-normalised adjacency
// a under restart probability c, indexed by a's ids.
func adjacencyBounds(a *sparse.CSC, c float64) Bounds {
	selfA := make([]float64, a.Cols)
	for u := range selfA {
		selfA[u] = a.At(u, u)
	}
	return Bounds{c: c, amax: a.Max(), amaxCol: a.ColMax(), selfA: selfA}
}

// cPrime is Definition 1's c' = (1-c) / (1 - A_uu + c*A_uu).
func (b *Bounds) cPrime(u int) float64 {
	return (1 - b.c) / (1 - b.selfA[u] + b.c*b.selfA[u])
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

// of is Definition 2's estimate for node u, visited on the current
// layer.
func (e *estimate) of(u int) float64 { return e.b.cPrime(u) * (e.t1 + e.t2 + e.t3) }

// selected folds a node whose proximity p was computed into the terms.
func (e *estimate) selected(v int, p float64) {
	e.t2 += p * e.b.amaxCol[v]
	e.t3 -= p * e.b.amax
	if e.t3 < 0 {
		e.t3 = 0 // guard against floating-point drift below zero
	}
}

// TreeWS is the reusable scratch of Algorithm 4 over an n-node graph:
// BFS layers and visit marks, invalidated per search by bumping a
// generation counter instead of rewriting the arrays, and the visit
// queue. Layers and marks are int32 (node ids are); when the generation
// wraps, the marks are cleared once. Not safe for concurrent use; pool
// it like any workspace.
type TreeWS struct {
	layer []int32 // valid only where mark[u] == gen
	mark  []int32
	gen   int32
	queue []int
}

// NewTreeWS returns search scratch for an n-node graph.
func NewTreeWS(n int) *TreeWS {
	return &TreeWS{layer: make([]int32, n), mark: make([]int32, n), queue: make([]int, 0, 256)}
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

// SearchTree is Algorithm 4: it visits nodes in breadth-first order from
// roots (layer 0 of a multi-source BFS, sorted ascending) over an
// out-adjacency in CSR form — node v's out-neighbours are
// outTo[outPtr[v]:outPtr[v+1]], a graph snapshot's or an index's
// adjacency — scores each visited node and offers
// every positive score of a non-excluded node to heap. Excluded nodes
// are still scored: their mass is part of the estimate.
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
func SearchTree(ws *TreeWS, b *Bounds, outPtr []int, outTo []int32, roots []int, score func(u int) float64, heap *topk.Heap, exclude map[int]bool, prune bool, stats *SearchStats) {
	gen := ws.next()
	layer, mark := ws.layer, ws.mark
	queue := append(ws.queue[:0], roots...)
	for _, r := range roots {
		mark[r] = gen
		layer[r] = 0
	}
	defer func() { ws.queue = queue[:0] }()

	est := estimate{b: b, t3: b.amax}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		stats.Visited++
		est.enter(int(layer[u]))
		// Root nodes estimate to 1 (Definition 1) and are always scored.
		// The heap-full guard keeps floating-point noise in a ~zero
		// estimate from truncating the candidate set before K nodes have
		// been seen.
		if prune && head >= len(roots) && heap.Len() == heap.K() && est.of(u) < heap.Threshold() {
			stats.Terminated = true
			return
		}
		p := score(u)
		stats.ProximityComputations++
		if p > 0 && !exclude[u] {
			heap.Push(u, p)
		}
		est.selected(u, p)
		// Discover u's out-neighbours (lazy BFS expansion).
		for _, id := range outTo[outPtr[u]:outPtr[u+1]] {
			if v := int(id); mark[v] != gen {
				mark[v] = gen
				layer[v] = layer[u] + 1
				queue = append(queue, v)
			}
		}
	}
}
