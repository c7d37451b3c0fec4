// Package reorder implements the paper's three approximation solutions to
// the (NP-complete) inverse matrices problem — degree, cluster, and hybrid
// reordering (Algorithms 1–3) — plus the random baseline used in Figures
// 5, 6 and 9.
//
// A reordering is a permutation perm with perm[old] = new: node `old` of
// the input graph becomes node `perm[old]` of the reordered graph. The
// goal of each method is to concentrate non-zeros of the column-normalised
// adjacency A away from the upper-left, which keeps the triangular inverse
// factors of W = I - (1-c)A sparse (Section 4.2.2 of the paper).
package reorder

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"kdash/internal/graph"
	"kdash/internal/louvain"
)

// Method selects a reordering strategy.
type Method int

const (
	// Degree arranges nodes in ascending order of (in+out) degree.
	Degree Method = iota
	// Cluster groups nodes by Louvain community, moving nodes with
	// cross-partition edges into a final border partition.
	Cluster
	// Hybrid applies Cluster and then sorts within each partition by
	// ascending degree. This is the paper's default (best) choice.
	Hybrid
	// Random is the baseline strawman ordering.
	Random
	// Natural keeps the input order (useful for debugging/ablation).
	Natural
)

// String returns the method name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case Degree:
		return "Degree"
	case Cluster:
		return "Cluster"
	case Hybrid:
		return "Hybrid"
	case Random:
		return "Random"
	case Natural:
		return "Natural"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists the strategies compared in Figures 5 and 6.
var Methods = []Method{Degree, Cluster, Hybrid, Random}

// Parse maps a method name — as printed by String, case-insensitive —
// back to the Method. The single inverse of String, shared by the CLI
// flags and the sharded-index manifest loader so a new method cannot
// be nameable in one place and unparseable in the other.
func Parse(name string) (Method, error) {
	for _, m := range []Method{Degree, Cluster, Hybrid, Random, Natural} {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("reorder: unknown method %q", name)
}

// Compute returns the permutation (perm[old] = new) for the chosen method.
// The seed feeds Louvain's visit order and the Random method; the same
// seed always gives the same permutation.
//
//kdash:deterministic
func Compute(g *graph.Graph, m Method, seed int64) []int {
	switch m {
	case Degree:
		return degreeOrder(g)
	case Cluster, Hybrid:
		perm, _ := ComputeBlock(g, m, seed, Block{Owned: g.N()})
		return perm
	case Random:
		return randomOrder(g.N(), seed)
	case Natural:
		perm := make([]int, g.N())
		for i := range perm {
			perm[i] = i
		}
		return perm
	default:
		panic(fmt.Sprintf("reorder: unknown method %d", int(m)))
	}
}

// Invert returns the inverse permutation: inv[new] = old.
func Invert(perm []int) []int {
	inv := make([]int, len(perm))
	for old, new := range perm {
		inv[new] = old
	}
	return inv
}

// degreeOrder implements Algorithm 1: ascending degree, ties by node id.
func degreeOrder(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(g.Degree(a), g.Degree(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return positionsToPerm(order)
}

// Block describes one shard block of a partitioned index for
// ComputeBlock: the block graph's first Owned nodes are the shard's
// own, and any nodes past them are ghost sinks absorbing the weight
// that leaves the block.
type Block struct {
	Owned int
	// Cut marks the owned nodes with an edge leaving the block (nil:
	// none do).
	Cut []bool
	// Communities, when non-nil, is the Louvain result of the owned
	// subgraph from an earlier epoch whose owned subgraph (and seed) is
	// the same, used instead of running Louvain again.
	Communities *louvain.Result
}

// ComputeBlock returns the permutation of a shard block's graph g and,
// for Cluster and Hybrid, the Louvain result it ordered by, for the
// caller to hand back as Block.Communities while the owned subgraph
// stays unchanged. Other methods order g as Compute does.
//
// Cluster and Hybrid order the block by its owned subgraph alone:
// Louvain and border extraction (Algorithm 2) run on the owned nodes
// without the sinks, the owned nodes that own cut edges follow the
// others within each partition, and the sinks come last. An edge op
// that crosses the cut therefore leaves the communities unchanged and
// moves no node unless it changes which nodes own cut edges, and the
// cut-owning nodes, whose columns such an op rewrites, sit where the
// fewest factor columns depend on them. A graph with every node owned
// and no cut is ordered exactly as Compute orders it.
//
//kdash:deterministic
func ComputeBlock(g *graph.Graph, m Method, seed int64, b Block) ([]int, *louvain.Result) {
	if m != Cluster && m != Hybrid {
		return Compute(g, m, seed), nil
	}
	res := b.Communities
	if res == nil {
		res = louvain.PartitionPrefix(g, b.Owned, seed)
	}
	part := borderPartition(g, b.Owned, res)
	cut := func(v int) bool { return b.Cut != nil && b.Cut[v] }
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order[:b.Owned], func(x, y int) int {
		if c := cmp.Compare(part[x], part[y]); c != 0 {
			return c
		}
		if cx, cy := cut(x), cut(y); cx != cy {
			if cx {
				return 1
			}
			return -1
		}
		if m == Hybrid {
			if c := cmp.Compare(g.Degree(x), g.Degree(y)); c != 0 {
				return c
			}
		}
		return cmp.Compare(x, y)
	})
	return positionsToPerm(order), res
}

// borderPartition returns the partition of each of g's first owned
// nodes: its Louvain community, or the border partition res.K when it
// has an edge to another community's owned node (Algorithm 2, lines
// 3–6). Edge direction is irrelevant here; any incident cross edge
// disqualifies the node.
func borderPartition(g *graph.Graph, owned int, res *louvain.Result) []int {
	part := slices.Clone(res.Community)
	for u := range part {
		g.OutNeighbors(u, func(v int, _ float64) {
			if v < owned && res.Community[u] != res.Community[v] {
				part[u], part[v] = res.K, res.K
			}
		})
	}
	return part
}

func randomOrder(n int, seed int64) []int {
	// rng.Perm already produces perm[old] = new uniformly.
	//kdash:allow(determinism) seeded generator: the permutation is a pure function of seed
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// positionsToPerm converts a visit order (order[new] = old) into a
// permutation (perm[old] = new).
func positionsToPerm(order []int) []int {
	perm := make([]int, len(order))
	for new, old := range order {
		perm[old] = new
	}
	return perm
}

// PartitionSizes is a helper for tests and diagnostics: it returns the
// sizes of the Louvain partitions (with border extraction) that cluster
// and hybrid reordering would use.
func PartitionSizes(g *graph.Graph, seed int64) []int {
	res := louvain.Partition(g, seed)
	counts := make([]int, res.K+1)
	for _, p := range borderPartition(g, g.N(), res) {
		counts[p]++
	}
	return counts
}
