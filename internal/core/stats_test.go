package core

import (
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
)

// TestSearchStatsInvariants checks structural invariants of the search
// accounting on random graphs: every scored node was visited, visits
// never exceed n, and pruning can only reduce work.
func TestSearchStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(80, 320, seed)
		ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := int(uint(seed) % 80)
		pruned, ps, err := ix.Search(q, SearchOptions{K: 5})
		if err != nil {
			return false
		}
		full, fs, err := ix.Search(q, SearchOptions{K: 5, DisablePruning: true})
		if err != nil {
			return false
		}
		if ps.ProximityComputations > ps.Visited || ps.Visited > g.N() {
			return false
		}
		if fs.ProximityComputations != fs.Visited {
			return false // without pruning every visited node is scored
		}
		if ps.ProximityComputations > fs.ProximityComputations {
			return false
		}
		if len(pruned) != len(full) {
			return false
		}
		for i := range pruned {
			if pruned[i].Node != full[i].Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestK1AlwaysQueryNode(t *testing.T) {
	// With K=1 the answer is the query node itself (p_q >= c > any other
	// node's proximity) and the search should terminate almost instantly.
	g := gen.BarabasiAlbert(150, 3, 1)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 150; q += 17 {
		rs, st, err := ix.TopK(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Node != q {
			t.Errorf("q=%d: K=1 answer %v", q, rs)
		}
		if st.ProximityComputations > 3 {
			t.Errorf("q=%d: K=1 needed %d proximity computations", q, st.ProximityComputations)
		}
	}
}

func TestIsolatedQueryNode(t *testing.T) {
	// A node with no out-edges: its proximity vector is c at itself and 0
	// elsewhere, so top-k is just the node.
	b := graph.NewBuilder(5)
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build() // node 0 and 4 are isolated
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := ix.TopK(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Node != 0 {
		t.Errorf("isolated query answer %v, want just node 0", rs)
	}
	if rs[0].Score < ix.Restart()-1e-12 {
		t.Errorf("isolated query proximity %v, want >= c", rs[0].Score)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Natural})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := ix.TopK(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Node != 0 {
		t.Errorf("single-node graph answer %v", rs)
	}
}

func TestVisitOrderMatchesEagerBFS(t *testing.T) {
	// The lazy BFS expansion in searchTree must produce exactly the same
	// visit order as the eager reference used by the random-root path.
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(40, 160, seed)
		ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := int(uint(seed) % 40)
		order, _ := ix.bfs(int(ix.perm[q]))
		// Replay an unpruned search and compare the visited count: with
		// pruning disabled it must visit exactly the BFS-reachable set.
		_, st, err := ix.Search(q, SearchOptions{K: 3, DisablePruning: true})
		if err != nil {
			return false
		}
		return st.Visited == len(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWorkersOptionEquivalence(t *testing.T) {
	// The Workers knob parallelises precompute only; answers must be
	// bit-identical.
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 5)
	a, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 60, 119} {
		ra, _, err := a.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Errorf("q=%d rank %d: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}
