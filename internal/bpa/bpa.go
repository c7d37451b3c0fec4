// Package bpa implements the Basic Push Algorithm of Gupta, Pathak &
// Chakrabarti (WWW 2008) for top-k Personalized PageRank / RWR queries,
// the second baseline in the paper's evaluation.
//
// The algorithm is bookmark-colouring push: it maintains a lower-bound
// estimate vector and a residual vector, repeatedly "pushing" the largest
// residual — settling a c-fraction at its node and spreading the rest to
// out-neighbours. Nodes designated as hubs have their exact proximity
// vectors precomputed; pushing a hub shortcut-settles its entire residual
// at once, which is what makes more hubs faster (the paper's Figure 4).
//
// The true proximity of any node v lies in
//
//	[ est[v], est[v] + totalResidual ]
//
// so returning every node whose upper bound reaches the K-th best lower
// bound guarantees recall 1: the answer set can be larger than K but never
// misses a true top-k node (the property the paper cites for choosing BPA
// over Avrachenkov et al.).
package bpa

import (
	"container/heap"
	"fmt"
	"sort"

	"kdash/internal/graph"
	"kdash/internal/rwr"
	"kdash/internal/sparse"
	"kdash/internal/topk"
)

// Options configures index construction.
type Options struct {
	// Hubs is the number of hub nodes (highest degree first) whose exact
	// proximity vectors are precomputed. The paper sweeps 100..1000.
	Hubs int
	// Restart is the restart probability c (0 selects 0.95).
	Restart float64
	// Epsilon is the residual-mass stopping threshold for queries
	// (0 selects 1e-6). Smaller is slower and more precise.
	Epsilon float64
}

func (o Options) withDefaults() Options {
	if o.Restart == 0 {
		o.Restart = rwr.DefaultRestart
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-6
	}
	return o
}

// Index is a prebuilt BPA structure. Safe for concurrent queries.
type Index struct {
	n      int
	c      float64
	eps    float64
	a      *sparse.CSC // column-normalised adjacency
	isHub  []bool
	hubVec map[int][]float64 // exact proximity vector per hub
}

// New precomputes hub vectors for the graph.
func New(g *graph.Graph, opt Options) (*Index, error) {
	opt = opt.withDefaults()
	if g.N() == 0 {
		return nil, fmt.Errorf("bpa: empty graph")
	}
	if opt.Hubs < 0 || opt.Hubs > g.N() {
		return nil, fmt.Errorf("bpa: hub count %d outside [0,%d]", opt.Hubs, g.N())
	}
	if opt.Restart <= 0 || opt.Restart >= 1 {
		return nil, fmt.Errorf("bpa: restart probability %v outside (0,1)", opt.Restart)
	}
	ix := &Index{
		n:      g.N(),
		c:      opt.Restart,
		eps:    opt.Epsilon,
		a:      g.ColumnNormalized(),
		isHub:  make([]bool, g.N()),
		hubVec: map[int][]float64{},
	}
	// Highest-degree nodes become hubs.
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	for _, h := range order[:opt.Hubs] {
		p, _, err := rwr.Iterative(ix.a, h, ix.c, 1e-12, rwr.DefaultMaxIter)
		if err != nil {
			return nil, fmt.Errorf("bpa: precomputing hub %d: %w", h, err)
		}
		ix.isHub[h] = true
		ix.hubVec[h] = p
	}
	return ix, nil
}

// Stats reports per-query work.
type Stats struct {
	Pushes   int // total push operations
	HubHits  int // pushes resolved via a precomputed hub vector
	Residual float64
}

// TopK returns an answer set guaranteed to contain the exact top-k nodes
// (recall 1). The set is sorted by descending estimated proximity and can
// contain more than k nodes when the push bounds cannot separate ties;
// callers comparing against exact algorithms typically take the first k.
func (ix *Index) TopK(q, k int) ([]topk.Result, Stats, error) {
	var stats Stats
	if q < 0 || q >= ix.n {
		return nil, stats, fmt.Errorf("bpa: query node %d outside [0,%d)", q, ix.n)
	}
	if k <= 0 {
		return nil, stats, fmt.Errorf("bpa: k must be positive, got %d", k)
	}
	est := make([]float64, ix.n)
	res := make([]float64, ix.n)
	res[q] = 1
	total := 1.0

	pq := &residQueue{}
	heap.Init(pq)
	heap.Push(pq, residEntry{q, 1})

	// Cap pushes defensively; the residual shrinks geometrically so this
	// is never reached in practice.
	maxPushes := 200 * ix.n
	for total > ix.eps && pq.Len() > 0 && stats.Pushes < maxPushes {
		top := heap.Pop(pq).(residEntry)
		v := top.node
		r := res[v]
		if r <= 0 || top.resid < r { // stale entry
			if r > 0 {
				heap.Push(pq, residEntry{v, r})
			}
			continue
		}
		stats.Pushes++
		res[v] = 0
		total -= r
		if hub, ok := ix.hubVec[v]; ok {
			// Hub shortcut: the entire residual settles exactly.
			stats.HubHits++
			for u, pv := range hub {
				if pv != 0 {
					est[u] += r * pv
				}
			}
			continue
		}
		est[v] += ix.c * r
		spread := (1 - ix.c) * r
		for i := ix.a.ColPtr[v]; i < ix.a.ColPtr[v+1]; i++ {
			u := int(ix.a.RowIdx[i])
			add := spread * ix.a.Val[i]
			res[u] += add
			total += add
			heap.Push(pq, residEntry{u, res[u]})
		}
	}
	if total < 0 {
		total = 0 // floating-point drift; residual mass is conceptually >= 0
	}
	stats.Residual = total

	// Answer set: lower bounds are est, upper bounds est + total. Keep
	// every node whose upper bound reaches the k-th best lower bound.
	h := topk.New(k)
	for v, e := range est {
		h.Push(v, e)
	}
	kth := h.Threshold()
	if h.Len() < k {
		kth = 0
	}
	var out []topk.Result
	for v, e := range est {
		if e > 0 && e+total >= kth {
			out = append(out, topk.Result{Node: v, Score: e})
		}
	}
	topk.SortResults(out)
	return out, stats, nil
}

type residEntry struct {
	node  int
	resid float64
}

type residQueue []residEntry

func (q residQueue) Len() int            { return len(q) }
func (q residQueue) Less(i, j int) bool  { return q[i].resid > q[j].resid }
func (q residQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *residQueue) Push(x interface{}) { *q = append(*q, x.(residEntry)) }
func (q *residQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
