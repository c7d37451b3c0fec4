// Package gen provides deterministic synthetic graph generators used to
// simulate the paper's five public datasets (which are not available
// offline). Every generator takes an explicit seed so datasets, tests and
// benchmarks are reproducible run-to-run. ErdosRenyi and CommunityOverlay
// are test fixtures (//kdash:testonly): no dataset is built from them.
package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"kdash/internal/graph"
)

// ErdosRenyi generates a directed G(n, m) graph: m edges drawn uniformly
// at random without self loops (duplicates merge, so the final edge count
// can be slightly below m).
//
//kdash:testonly
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		for v == u {
			v = rng.Intn(n)
		}
		mustAdd(b, u, v, 1)
	}
	return b.Build()
}

// BarabasiAlbert generates an undirected preferential-attachment graph:
// each new node attaches to k existing nodes chosen proportionally to
// degree. It reproduces the heavy-tailed degree distribution of the
// paper's Internet (AS topology) dataset.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 || n <= k {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs n > k >= 1, got n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// targets is the repeated-node list implementing preferential
	// attachment: a node appears once per incident edge end.
	targets := make([]int, 0, 2*k*n)
	// Seed clique over the first k+1 nodes.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			mustAdd(b, u, v, 1)
			mustAdd(b, v, u, 1)
			targets = append(targets, u, v)
		}
	}
	chosen := make([]int, 0, k)
	for u := k + 1; u < n; u++ {
		// A slice in draw order, not a set: the order feeds targets,
		// and so every later draw.
		chosen = chosen[:0]
		for len(chosen) < k {
			t := targets[rng.Intn(len(targets))]
			if t != u && !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, v := range chosen {
			mustAdd(b, u, v, 1)
			mustAdd(b, v, u, 1)
			targets = append(targets, u, v)
		}
	}
	return b.Build()
}

// DirectedScaleFree generates a directed graph by the copy model: each new
// node u emits kOut edges; each edge either picks a uniformly random
// target (prob. beta) or copies the target of a random existing edge
// (prob. 1-beta), which yields a heavy-tailed in-degree distribution.
// Each edge is reciprocated with probability pRecip — trust is often
// mutual and emails get replies — which puts cycles in the graph (a pure
// copy model is a near-DAG, whose LU factors are trivially sparse under
// any ordering and would make the reordering study vacuous). This
// simulates the Epinions-style trust network and the Email graph.
func DirectedScaleFree(n, kOut int, beta, pRecip float64, seed int64) *graph.Graph {
	if kOut < 1 || n <= kOut {
		panic(fmt.Sprintf("gen: DirectedScaleFree needs n > kOut >= 1, got n=%d kOut=%d", n, kOut))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	var targets []int
	// Bootstrap ring over the first kOut+1 nodes.
	for u := 0; u <= kOut; u++ {
		v := (u + 1) % (kOut + 1)
		mustAdd(b, u, v, 1)
		targets = append(targets, v)
	}
	for u := kOut + 1; u < n; u++ {
		for e := 0; e < kOut; e++ {
			var v int
			if rng.Float64() < beta || len(targets) == 0 {
				v = rng.Intn(u)
			} else {
				v = targets[rng.Intn(len(targets))]
			}
			if v == u {
				v = rng.Intn(u)
			}
			mustAdd(b, u, v, 1)
			targets = append(targets, v)
			if rng.Float64() < pRecip {
				mustAdd(b, v, u, 1)
			}
		}
	}
	return b.Build()
}

// PlantedPartition generates an undirected weighted graph with k equal
// communities: within-community edges appear with probability pIn, cross
// edges with pOut. Weights are 1 + Exp(1)-ish jitter to simulate the
// weighted co-authorship (Citation) dataset.
func PlantedPartition(n, k int, pIn, pOut float64, seed int64) *graph.Graph {
	if k < 1 || n < k {
		panic(fmt.Sprintf("gen: PlantedPartition needs n >= k >= 1, got n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	community := func(u int) int { return u * k / n }
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if community(u) == community(v) {
				p = pIn
			}
			if rng.Float64() < p {
				w := 1 + rng.ExpFloat64()
				mustAdd(b, u, v, w)
				mustAdd(b, v, u, w)
			}
		}
	}
	// Guarantee no isolated nodes: chain each edgeless node to a
	// community mate so BFS/Louvain behave.
	g := b.Build()
	b2 := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		mustAdd(b2, e.From, e.To, e.Weight)
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) == 0 {
			v := (u + 1) % n
			mustAdd(b2, u, v, 1)
			mustAdd(b2, v, u, 1)
		}
	}
	return b2.Build()
}

// CommunityOverlay generates a directed graph combining preferential
// attachment (degree skew) with planted communities (clusterability):
// node u links to a few popular nodes plus a few same-community ones.
//
//kdash:testonly
func CommunityOverlay(n, k, communities int, pSame float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	community := func(u int) int { return u % communities }
	var targets []int
	for u := 0; u < communities && u < n; u++ {
		v := (u + 1) % communities
		if v != u {
			mustAdd(b, u, v, 1)
			targets = append(targets, v)
		}
	}
	for u := 0; u < n; u++ {
		for e := 0; e < k; e++ {
			var v int
			if rng.Float64() < pSame {
				// Same-community target.
				v = community(u) + communities*rng.Intn(max(1, n/communities))
				if v >= n || v == u {
					continue
				}
			} else if len(targets) > 0 && rng.Float64() < 0.7 {
				v = targets[rng.Intn(len(targets))]
			} else {
				v = rng.Intn(n)
			}
			if v == u || v >= n {
				continue
			}
			mustAdd(b, u, v, 1)
			targets = append(targets, v)
		}
	}
	// Ensure every node has at least one out-edge so BFS from any query
	// reaches a non-trivial set.
	g := b.Build()
	b2 := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		mustAdd(b2, e.From, e.To, e.Weight)
	}
	for u := 0; u < n; u++ {
		if g.OutDegree(u) == 0 {
			mustAdd(b2, u, (u+1)%n, 1)
		}
	}
	return b2.Build()
}

func mustAdd(b *graph.Builder, u, v int, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err) // generators only produce in-range edges
	}
}
