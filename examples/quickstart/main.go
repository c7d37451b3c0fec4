// Quickstart: build a small graph, index it, run an exact top-k RWR
// query, and confirm the answer against the iterative oracle.
package main

import (
	"fmt"
	"log"

	"kdash"
)

func main() {
	// The 7-node example graph from the paper's Appendix A (Figure 8):
	// a directed graph where u1 is the query. Weights are distinct so the
	// ranking has no exact ties.
	edges := []struct {
		from, to int
		w        float64
	}{
		{0, 1, 2}, {0, 2, 1}, // u1 -> u2, u3
		{1, 3, 1}, {1, 4, 2}, // u2 -> u4, u5
		{2, 3, 1},            // u3 -> u4
		{3, 4, 1}, {3, 5, 2}, // u4 -> u5, u6
		{4, 6, 1}, // u5 -> u7
		{5, 4, 1}, // u6 -> u5
		{6, 0, 1}, // u7 -> u1 (cycle back so the walk recirculates)
	}
	b := kdash.NewBuilder(7)
	for _, e := range edges {
		if err := b.AddEdge(e.from, e.to, e.w); err != nil {
			log.Fatal(err)
		}
	}
	g := b.Build()

	ix, err := kdash.BuildIndex(g, kdash.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("indexed %d nodes / %d edges: nnz(inverse factors) = %d\n", g.N(), g.M(), st.NNZInverse)

	const query, k = 0, 3
	results, stats, err := ix.TopK(query, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d for node u%d (%d exact proximities):\n",
		k, query+1, stats.ProximityComputations)
	for i, r := range results {
		fmt.Printf("  %d. u%d  proximity %.6f\n", i+1, r.Node+1, r.Score)
	}

	// The answer is exact: the slow iterative method agrees.
	oracle, err := kdash.IterativeTopK(g, query, k, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := range results {
		if results[i].Node != oracle[i].Node {
			log.Fatalf("mismatch at rank %d: K-dash %v vs iterative %v", i, results[i], oracle[i])
		}
	}
	fmt.Println("verified: identical to the iterative RWR answer")
}
