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
	case Cluster:
		return clusterOrder(g, seed, false)
	case Hybrid:
		return clusterOrder(g, seed, true)
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

// clusterOrder implements Algorithm 2 (and, with sortByDegree, Algorithm
// 3): Louvain partitioning, border extraction into partition κ+1, then
// concatenation of partitions.
func clusterOrder(g *graph.Graph, seed int64, sortByDegree bool) []int {
	n := g.N()
	part, _ := borderPartition(g, seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(part[a], part[b]); c != 0 {
			return c
		}
		if sortByDegree {
			if c := cmp.Compare(g.Degree(a), g.Degree(b)); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	return positionsToPerm(order)
}

// borderPartition runs Louvain and moves every node with an edge that
// crosses communities into the border partition κ+1, whose id it also
// returns (Algorithm 2, lines 3–6). Edge direction is irrelevant here;
// any incident cross edge disqualifies the node.
func borderPartition(g *graph.Graph, seed int64) (part []int, border int) {
	res := louvain.Partition(g, seed)
	part = slices.Clone(res.Community)
	for u := range part {
		g.OutNeighbors(u, func(v int, _ float64) {
			if res.Community[u] != res.Community[v] {
				part[u], part[v] = res.K, res.K
			}
		})
	}
	return part, res.K
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
	part, border := borderPartition(g, seed)
	counts := make([]int, border+1)
	for _, p := range part {
		counts[p]++
	}
	return counts
}
