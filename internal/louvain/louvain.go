// Package louvain implements the Louvain community-detection method of
// Blondel et al. (2008), which the paper uses for its cluster and hybrid
// node reorderings. The method greedily maximises modularity in two
// alternating phases: local node moves and graph aggregation.
//
// Directed input graphs are symmetrised (edge weight u~v is the sum of
// both directions) because modularity is defined on undirected graphs.
//
// Every level is a flat CSR adjacency with ascending neighbour lists,
// and every float accumulation walks those lists in order, so the same
// graph and seed give the same Community, K and Q bit for bit — on
// weighted graphs too. The sharded update path depends on that: a
// refactorized shard must equal a from-scratch build of it.
package louvain

import (
	"math/rand"

	"kdash/internal/graph"
)

// Result holds a partition of the nodes into communities 0..K-1.
type Result struct {
	Community []int   // Community[u] = community id of node u
	K         int     // number of communities
	Q         float64 // modularity of the partition
}

// maxLevels bounds the aggregation recursion; Louvain converges in a
// handful of levels on all practical graphs.
const maxLevels = 20

// Partition detects communities on the (symmetrised) graph. The seed
// controls node visit order in the local-moving phase; any seed gives a
// valid partition and the same seed gives the same partition, bit for
// bit in Q as well.
//
//kdash:deterministic
func Partition(g *graph.Graph, seed int64) *Result {
	return PartitionPrefix(g, g.N(), seed)
}

// PartitionPrefix is Partition on the subgraph g induces on its first n
// nodes: edges to or from nodes n and beyond are ignored, so the result
// is bit for bit Partition's on that subgraph built on its own. A shard
// block orders its owned nodes this way without the ghost sinks that
// follow them.
//
//kdash:deterministic
func PartitionPrefix(g *graph.Graph, n int, seed int64) *Result {
	if n == 0 {
		return &Result{Community: []int{}, K: 0}
	}
	adj := symmetrize(g, n)
	rng := rand.New(rand.NewSource(seed)) //kdash:allow(determinism) seeded generator: the visit order is a pure function of seed

	// assignment[u] tracks u's community in the original node space.
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}

	level := adj
	for lv := 0; lv < maxLevels; lv++ {
		com, moved := localMove(level, rng)
		com, k := compact(com)
		// Fold this level's communities into the original assignment.
		for u := 0; u < n; u++ {
			assignment[u] = com[assignment[u]]
		}
		if !moved || k == len(level.weight) {
			break
		}
		level = aggregate(level, com, k)
	}
	com, k := compact(assignment)
	return &Result{Community: com, K: k, Q: adj.modularity(com)}
}

// weighted is an undirected weighted graph in CSR form: node u's
// neighbours are nbr[ptr[u]:ptr[u+1]], ascending and unique, with
// parallel weights in w. Self loops live in self, not in the lists.
type weighted struct {
	ptr    []int
	nbr    []int
	w      []float64
	weight []float64 // weighted degree per node (self loops count twice)
	m2     float64   // total weight * 2
	self   []float64 // self-loop weight per node
}

// rowBuilder fills a weighted graph's rows by transposition: the caller
// visits sources x in ascending order and adds (row y, neighbour x, w)
// entries, so every row comes out ascending without a sort, and a
// repeated (y, x) — always adjacent, since x's turn is contiguous —
// folds into the entry before it.
type rowBuilder struct {
	wg   *weighted
	fill []int // next free slot per row
}

// newRowBuilder sizes row y for at most rowCap[y] entries.
func newRowBuilder(rowCap []int) *rowBuilder {
	n := len(rowCap)
	wg := &weighted{ptr: make([]int, n+1), weight: make([]float64, n), self: make([]float64, n)}
	for y, c := range rowCap {
		wg.ptr[y+1] = wg.ptr[y] + c
	}
	wg.nbr = make([]int, wg.ptr[n])
	wg.w = make([]float64, wg.ptr[n])
	return &rowBuilder{wg: wg, fill: append([]int(nil), wg.ptr[:n]...)}
}

func (b *rowBuilder) add(y, x int, w float64) {
	if at := b.fill[y]; at > b.wg.ptr[y] && b.wg.nbr[at-1] == x {
		b.wg.w[at-1] += w
		return
	}
	b.wg.nbr[b.fill[y]] = x
	b.wg.w[b.fill[y]] = w
	b.fill[y]++
}

// finish squeezes out the slots merging left unused and totals the
// degrees.
func (b *rowBuilder) finish() *weighted {
	wg := b.wg
	at := 0
	for y := range wg.weight {
		lo := wg.ptr[y]
		wg.ptr[y] = at
		for i := lo; i < b.fill[y]; i++ {
			wg.nbr[at], wg.w[at] = wg.nbr[i], wg.w[i]
			wg.weight[y] += wg.w[i]
			at++
		}
		wg.weight[y] += 2 * wg.self[y]
		wg.m2 += wg.weight[y]
	}
	wg.ptr[len(wg.weight)] = at
	wg.nbr, wg.w = wg.nbr[:at], wg.w[:at]
	return wg
}

// symmetrize builds the undirected graph over g's first n nodes.
func symmetrize(g *graph.Graph, n int) *weighted {
	deg := make([]int, n)
	for u := range deg {
		deg[u] = g.Degree(u)
	}
	b := newRowBuilder(deg)
	for x := 0; x < n; x++ {
		g.OutNeighbors(x, func(y int, w float64) {
			if y == x {
				b.wg.self[x] += w
				return
			}
			if y < n {
				b.add(y, x, w)
			}
		})
		g.InNeighbors(x, func(y int, w float64) {
			if y != x && y < n {
				b.add(y, x, w)
			}
		})
	}
	return b.finish()
}

// localMove runs modularity-greedy single-node moves until a full pass
// makes no move. Returns the community assignment and whether any move
// happened at all.
func localMove(wg *weighted, rng *rand.Rand) ([]int, bool) {
	n := len(wg.weight)
	com := make([]int, n)
	tot := make([]float64, n) // total weighted degree per community
	for u := 0; u < n; u++ {
		com[u] = u
		tot[u] = wg.weight[u]
	}
	if wg.m2 == 0 {
		return com, false
	}
	order := rng.Perm(n) //kdash:allow(determinism) drawn from Partition's seeded generator
	anyMoved := false
	// neighWeight[c] accumulates edge weight from the current node into
	// community c during one node's evaluation and is zero outside it;
	// touched lists the communities to reset. Edge weights are positive,
	// so an entry is zero exactly until its first addition.
	neighWeight := make([]float64, n)
	touched := make([]int, 0, 64)
	for pass := 0; pass < 100; pass++ {
		movedThisPass := false
		for _, u := range order {
			cu := com[u]
			for i := wg.ptr[u]; i < wg.ptr[u+1]; i++ {
				c := com[wg.nbr[i]]
				if neighWeight[c] == 0 {
					touched = append(touched, c)
				}
				neighWeight[c] += wg.w[i]
			}
			// Remove u from its community.
			tot[cu] -= wg.weight[u]
			best, bestGain := cu, neighWeight[cu]-tot[cu]*wg.weight[u]/wg.m2
			for _, c := range touched {
				gain := neighWeight[c] - tot[c]*wg.weight[u]/wg.m2
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
					best, bestGain = c, gain
				}
				neighWeight[c] = 0
			}
			touched = touched[:0]
			tot[best] += wg.weight[u]
			if best != cu {
				com[u] = best
				movedThisPass = true
				anyMoved = true
			}
		}
		if !movedThisPass {
			break
		}
	}
	return com, anyMoved
}

// compact renumbers community ids to 0..k-1 preserving first-seen order.
// Ids must lie in [0, len(com)).
func compact(com []int) ([]int, int) {
	remap := make([]int, len(com))
	for i := range remap {
		remap[i] = -1
	}
	out := make([]int, len(com))
	k := 0
	for i, c := range com {
		if remap[c] < 0 {
			remap[c] = k
			k++
		}
		out[i] = remap[c]
	}
	return out, k
}

// aggregate collapses each community into a single super-node.
func aggregate(wg *weighted, com []int, k int) *weighted {
	n := len(com)
	// Members of each community, ascending (counting sort), and an upper
	// bound on each super-node's row: its members' summed degrees.
	start := make([]int, k+1)
	deg := make([]int, k)
	for u, c := range com {
		start[c+1]++
		deg[c] += wg.ptr[u+1] - wg.ptr[u]
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	members := make([]int, n)
	next := append([]int(nil), start[:k]...)
	for u, c := range com {
		members[next[c]] = u
		next[c]++
	}
	b := newRowBuilder(deg)
	for cx := 0; cx < k; cx++ {
		for _, u := range members[start[cx]:start[cx+1]] {
			b.wg.self[cx] += wg.self[u]
			for i := wg.ptr[u]; i < wg.ptr[u+1]; i++ {
				if cy := com[wg.nbr[i]]; cy == cx {
					// Each undirected edge appears twice in adjacency lists;
					// halve to count it once as a self loop.
					b.wg.self[cx] += wg.w[i] / 2
				} else {
					b.add(cy, cx, wg.w[i])
				}
			}
		}
	}
	return b.finish()
}

// Modularity computes Newman modularity of a partition on the
// symmetrised graph: Q = Σ_c [ in_c/m2 - (tot_c/m2)^2 ].
func Modularity(g *graph.Graph, com []int) float64 {
	return symmetrize(g, g.N()).modularity(com)
}

func (wg *weighted) modularity(com []int) float64 {
	if wg.m2 == 0 {
		return 0
	}
	k := 0
	for _, c := range com {
		if c+1 > k {
			k = c + 1
		}
	}
	in := make([]float64, k)
	tot := make([]float64, k)
	for u := range wg.weight {
		tot[com[u]] += wg.weight[u]
		in[com[u]] += 2 * wg.self[u]
		for i := wg.ptr[u]; i < wg.ptr[u+1]; i++ {
			if com[wg.nbr[i]] == com[u] {
				in[com[u]] += wg.w[i]
			}
		}
	}
	q := 0.0
	for c := 0; c < k; c++ {
		q += in[c]/wg.m2 - (tot[c]/wg.m2)*(tot[c]/wg.m2)
	}
	return q
}
