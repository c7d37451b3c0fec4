// Package workload generates the benchmark's inputs — the reference
// graph, the per-workload request lists and the update stream — from a
// seed, and holds the statistics and /proc helpers the runners share.
// Nothing here touches the program under test: the same seed always
// yields byte-identical inputs.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// RNG is splitmix64: a few lines, so the generated inputs depend on no
// library's stream and stay byte-identical across Go releases.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; stream separates independent uses of one
// benchmark seed (graph, request list, update stream).
func NewRNG(seed int64, stream uint64) *RNG {
	r := &RNG{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0,1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Streams of one benchmark seed.
const (
	streamGraph = iota + 1
	streamUniform
	streamHotset
	streamUpdates
	streamOracle
)

// Edge is one directed unit-weight edge.
type Edge struct{ From, To int }

// GraphSpec is the shape of the reference graph.
type GraphSpec struct {
	Nodes       int
	OutDegree   int
	Communities int
	PSame       float64
}

// Reference is the 50,000-node community-overlay graph behind every
// committed BENCH_ row; Smoke is the small graph `-smoke` and the tests
// use.
var (
	Reference = GraphSpec{Nodes: 50000, OutDegree: 3, Communities: 500, PSame: 0.995}
	Smoke     = GraphSpec{Nodes: 2000, OutDegree: 3, Communities: 20, PSame: 0.995}
)

// GenGraph draws a community-overlay graph: node u belongs to community
// u mod Communities and sends OutDegree edges, each with probability
// PSame to a member of its own community and otherwise to an earlier
// target (preferential attachment, 70 %) or a uniform node. Every node
// keeps at least one out-edge. Edges are distinct and sorted.
func GenGraph(spec GraphSpec, seed int64) []Edge {
	rng := NewRNG(seed, streamGraph)
	n, c := spec.Nodes, spec.Communities
	seen := make(map[Edge]bool, n*spec.OutDegree)
	edges := make([]Edge, 0, n*spec.OutDegree)
	var targets []int
	add := func(u, v int) {
		e := Edge{u, v}
		if u == v || v >= n || seen[e] {
			return
		}
		seen[e] = true
		edges = append(edges, e)
		targets = append(targets, v)
	}
	for u := 0; u < c && u < n; u++ {
		add(u, (u+1)%c)
	}
	perCommunity := n / c
	if perCommunity < 1 {
		perCommunity = 1
	}
	for u := 0; u < n; u++ {
		for e := 0; e < spec.OutDegree; e++ {
			switch {
			case rng.Float64() < spec.PSame:
				add(u, u%c+c*rng.Intn(perCommunity))
			case len(targets) > 0 && rng.Float64() < 0.7:
				add(u, targets[rng.Intn(len(targets))])
			default:
				add(u, rng.Intn(n))
			}
		}
	}
	out := make([]bool, n)
	for _, e := range edges {
		out[e.From] = true
	}
	for u := 0; u < n; u++ {
		if !out[u] {
			add(u, (u+1)%n)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// WriteTSV writes the edge list the kdash CLI loads: "from<TAB>to" per
// line, weight 1 implied.
func WriteTSV(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		fmt.Fprintf(bw, "%d\t%d\n", e.From, e.To)
	}
	return bw.Flush()
}
