package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

func buildFor(t *testing.T, g *graph.Graph, m reorder.Method) *Index {
	t.Helper()
	ix, err := BuildIndex(g, BuildOptions{Reorder: m, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex(%v): %v", m, err)
	}
	return ix
}

// plantedIndex builds a Hybrid-ordered index over an n-node planted
// partition graph.
func plantedIndex(t *testing.T, seed int64, n int) *Index {
	t.Helper()
	g := gen.PlantedPartition(n, 4, 0.2, 0.02, seed)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// oracle computes the exact top-k with the iterative method.
func oracle(t *testing.T, g *graph.Graph, q, k int, c float64) []topk.Result {
	t.Helper()
	rs, err := rwr.TopK(g.ColumnNormalized(), q, k, c)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return rs
}

// trimZeros drops zero-proximity padding: the iterative oracle's top-k
// fills up with unreachable (proximity-0) nodes when fewer than k nodes
// are reachable, whereas K-dash intentionally returns only reachable
// nodes. Any zero-score node is an equally valid "answer", so the
// comparison ignores them.
func trimZeros(rs []topk.Result) []topk.Result {
	out := rs[:0:0]
	for _, r := range rs {
		if r.Score > 1e-12 {
			out = append(out, r)
		}
	}
	return out
}

// sameAnswerSet compares top-k results allowing reordering among exact
// score ties.
func sameAnswerSet(a, b []topk.Result, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > tol {
			return false
		}
	}
	// Node sets must agree up to tie-swaps: compare as multisets keyed by
	// whether each node of a appears in b with a matching score. A node
	// missing from b entirely is still a valid answer when its score ties
	// the k-th place within tol — either of the tied nodes may be cut at
	// the boundary (the symmetric shapes in the shared testutil suite,
	// grids and disconnected components, make exact boundary ties
	// common). Same rule as the shard suite and experiments.Precision.
	used := make([]bool, len(b))
	for i := range a {
		found := false
		for j := range b {
			if !used[j] && a[i].Node == b[j].Node && math.Abs(a[i].Score-b[j].Score) < tol {
				used[j] = true
				found = true
				break
			}
		}
		if !found && math.Abs(a[i].Score-b[len(b)-1].Score) > tol {
			return false
		}
	}
	return true
}

func TestExactnessAllReorderings(t *testing.T) {
	g := gen.PlantedPartition(150, 4, 0.15, 0.01, 3)
	for _, m := range []reorder.Method{reorder.Degree, reorder.Cluster, reorder.Hybrid, reorder.Random, reorder.Natural} {
		ix := buildFor(t, g, m)
		for _, q := range []int{0, 17, 75, 149} {
			for _, k := range []int{1, 5, 20} {
				got, _, err := ix.TopK(q, k)
				if err != nil {
					t.Fatalf("%v q=%d k=%d: %v", m, q, k, err)
				}
				want := oracle(t, g, q, k, ix.Restart())
				if !sameAnswerSet(got, want, 1e-8) {
					t.Errorf("%v q=%d k=%d: got %v, want %v", m, q, k, got, want)
				}
			}
		}
	}
}

func TestExactnessPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// The shared generator sweeps shapes, not just ER: grids,
		// disconnected components and self-loop-heavy graphs all hit
		// estimation corners the uniform generator never reaches.
		g := testutil.Random(rng)
		n := g.N()
		ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := rng.Intn(n)
		k := 1 + rng.Intn(10)
		got, _, err := ix.TopK(q, k)
		if err != nil {
			return false
		}
		want, err := rwr.TopK(g.ColumnNormalized(), q, k, ix.Restart())
		if err != nil {
			return false
		}
		return sameAnswerSet(trimZeros(got), trimZeros(want), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLemma1EstimateUpperBoundsProximity(t *testing.T) {
	// Run a search with pruning disabled and verify every exact proximity
	// is below the estimate computed at visit time. We re-derive the
	// estimates here with the non-incremental Definition 1 and compare
	// against the full proximity vector.
	g := gen.BarabasiAlbert(100, 3, 5)
	ix := buildFor(t, g, reorder.Hybrid)
	q := 7
	pv, err := ix.ProximityVector(q)
	if err != nil {
		t.Fatal(err)
	}
	// Internal-space replay of the visit order.
	qi := int(ix.perm[q])
	order, layer := ix.bfs(qi)
	tab := ix.tables()
	b := &tab.bounds
	var sel []int // selected internal nodes in visit order
	for _, u := range order {
		if u != qi {
			// Definition 1 computed directly.
			var sum1, sum2, sumSel float64
			for _, v := range sel {
				pOld := pv[tab.inv[v]]
				sumSel += pOld
				switch layer[v] {
				case layer[u] - 1:
					sum1 += pOld * b.amaxCol[v]
				case layer[u]:
					sum2 += pOld * b.amaxCol[v]
				}
			}
			rem := 1 - sumSel
			if rem < 0 {
				rem = 0
			}
			est := b.cPrime(u) * (sum1 + sum2 + rem*b.amax)
			if pu := pv[tab.inv[u]]; est < pu-1e-9 {
				t.Fatalf("Lemma 1 violated at internal node %d: estimate %v < proximity %v", u, est, pu)
			}
		}
		sel = append(sel, u)
	}
}

func TestQueryNodeAlwaysFirst(t *testing.T) {
	g := gen.DirectedScaleFree(120, 3, 0.3, 0.25, 6)
	ix := buildFor(t, g, reorder.Hybrid)
	for q := 0; q < 120; q += 13 {
		rs, _, err := ix.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 || rs[0].Node != q {
			t.Errorf("q=%d: query should have top proximity, results %v", q, rs)
		}
		if rs[0].Score < ix.Restart() {
			t.Errorf("q=%d: proximity of query %v should be >= c", q, rs[0].Score)
		}
	}
}

func TestPruningReducesWork(t *testing.T) {
	g := gen.PlantedPartition(250, 5, 0.15, 0.005, 7)
	ix := buildFor(t, g, reorder.Hybrid)
	q, k := 10, 5
	_, pruned, err := ix.Search(q, SearchOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := ix.Search(q, SearchOptions{K: k, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.ProximityComputations >= full.ProximityComputations {
		t.Errorf("pruning did not reduce proximity computations: %d vs %d",
			pruned.ProximityComputations, full.ProximityComputations)
	}
	if !pruned.Terminated {
		t.Error("expected early termination on a clustered graph")
	}
	// Both must return the same exact answer.
	a, _, _ := ix.Search(q, SearchOptions{K: k})
	b, _, _ := ix.Search(q, SearchOptions{K: k, DisablePruning: true})
	if !sameAnswerSet(a, b, 1e-10) {
		t.Errorf("pruned answer %v differs from unpruned %v", a, b)
	}
}

func TestRandomRootStillExactButMoreWork(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.15, 0.01, 8)
	ix := buildFor(t, g, reorder.Hybrid)
	q, k := 3, 5
	want := oracle(t, g, q, k, ix.Restart())
	got, rs, err := ix.Search(q, SearchOptions{K: k, RandomRoot: true, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswerSet(got, want, 1e-8) {
		t.Errorf("random-root answer %v, want %v", got, want)
	}
	_, qs, err := ix.Search(q, SearchOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ProximityComputations <= qs.ProximityComputations {
		t.Errorf("random root should need more proximity computations: %d vs %d",
			rs.ProximityComputations, qs.ProximityComputations)
	}
}

func TestKLargerThanReachable(t *testing.T) {
	// Two disconnected components: querying one must return only its
	// reachable nodes (everything else has proximity exactly 0).
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ix := buildFor(t, g, reorder.Hybrid)
	rs, _, err := ix.TopK(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("want 2 reachable results, got %v", rs)
	}
	if rs[0].Node != 0 || rs[1].Node != 1 {
		t.Errorf("results = %v", rs)
	}
}

func TestProximityVectorMatchesIterative(t *testing.T) {
	g := gen.CommunityOverlay(150, 4, 8, 0.5, 9)
	ix := buildFor(t, g, reorder.Cluster)
	want, _, err := rwr.Iterative(g.ColumnNormalized(), 42, ix.Restart(), 1e-14, 100000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.ProximityVector(42)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if math.Abs(got[u]-want[u]) > 1e-9 {
			t.Fatalf("p[%d] = %v, want %v", u, got[u], want[u])
		}
	}
}

func TestSingleProximity(t *testing.T) {
	g := gen.ErdosRenyi(60, 240, 10)
	ix := buildFor(t, g, reorder.Degree)
	pv, err := ix.ProximityVector(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 5, 30, 59} {
		got, err := ix.Proximity(5, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-pv[u]) > 1e-12 {
			t.Errorf("Proximity(5,%d) = %v, want %v", u, got, pv[u])
		}
	}
}

// TestGhostRowRefused: on a block index whose last node is a ghost
// sink, which Hybrid orders last and L^{-1} does not keep, Proximity
// refuses the sink as a target and ProximityVector refuses the block,
// while every owned node's proximity, the sink as query included, is
// bit for bit c times Solve's row.
func TestGhostRowRefused(t *testing.T) {
	const n = 40
	sink := n - 1
	rng := rand.New(rand.NewSource(4))
	b := graph.NewBuilder(n)
	cut := make([]bool, sink)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(sink), rng.Intn(n)
		if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		cut[u] = cut[u] || v == sink
	}
	ix, _, err := BuildBlock(b.Build(), BuildOptions{Reorder: reorder.Hybrid, Seed: 1, Workers: 1}, reorder.Block{Owned: sink, Cut: cut}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.inv.Linv.Rows != sink || int(ix.perm[sink]) != sink {
		t.Fatalf("L^-1 keeps %d rows, sink at row %d; want the sink's row %d dropped", ix.inv.Linv.Rows, ix.perm[sink], sink)
	}
	if _, err := ix.Proximity(0, sink); err == nil {
		t.Error("Proximity answered the ghost sink's row")
	}
	if _, err := ix.ProximityVector(0); err == nil {
		t.Error("ProximityVector answered a block with a ghost row")
	}
	for _, q := range []int{0, 17, sink} {
		e := make([]float64, n)
		e[q] = 1
		y, err := ix.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < sink; u++ {
			p, err := ix.Proximity(q, u)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(p) != math.Float64bits(ix.c*y[u]) {
				t.Fatalf("Proximity(%d,%d) = %v, Solve's row %v", q, u, p, ix.c*y[u])
			}
		}
	}
}

func TestBuildAndSearchErrors(t *testing.T) {
	if _, err := BuildIndex(graph.NewBuilder(0).Build(), BuildOptions{}); err == nil {
		t.Error("expected error for empty graph")
	}
	g := gen.ErdosRenyi(10, 30, 11)
	if _, err := BuildIndex(g, BuildOptions{Restart: 1.5}); err == nil {
		t.Error("expected error for c > 1")
	}
	if _, err := BuildIndex(g, BuildOptions{Restart: -0.1}); err == nil {
		t.Error("expected error for negative c")
	}
	ix := buildFor(t, g, reorder.Hybrid)
	if _, _, err := ix.TopK(-1, 3); err == nil {
		t.Error("expected error for negative query")
	}
	if _, _, err := ix.TopK(10, 3); err == nil {
		t.Error("expected error for query >= n")
	}
	if _, _, err := ix.TopK(0, 0); err == nil {
		t.Error("expected error for k = 0")
	}
	if _, err := ix.Proximity(0, 99); err == nil {
		t.Error("expected error for out-of-range target")
	}
	if _, err := ix.ProximityVector(-2); err == nil {
		t.Error("expected error for out-of-range query")
	}
}

func TestRestartSweepExactness(t *testing.T) {
	// Section 6.3.3: the approach works across restart probabilities.
	g := gen.BarabasiAlbert(80, 3, 12)
	for _, c := range []float64{0.5, 0.7, 0.9, 0.95, 0.99} {
		ix, err := BuildIndex(g, BuildOptions{Restart: c, Reorder: reorder.Hybrid, Seed: 2})
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		got, _, err := ix.TopK(11, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(t, g, 11, 8, c)
		if !sameAnswerSet(got, want, 1e-7) {
			t.Errorf("c=%v: got %v want %v", c, got, want)
		}
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	g := gen.PlantedPartition(100, 3, 0.2, 0.01, 13)
	ix := buildFor(t, g, reorder.Hybrid)
	st := ix.Stats()
	if st.NNZInverse <= 0 || st.Edges != g.M() || st.InverseRatio <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.TotalTime <= 0 {
		t.Error("total time not recorded")
	}
	if st.Method != reorder.Hybrid {
		t.Errorf("method = %v", st.Method)
	}
}

func TestHybridBeatsRandomOnNNZ(t *testing.T) {
	// The core claim behind Figure 5: hybrid reordering yields (much)
	// sparser inverse factors than random ordering on clustered graphs.
	g := gen.PlantedPartition(220, 6, 0.2, 0.004, 14)
	hy := buildFor(t, g, reorder.Hybrid)
	rd := buildFor(t, g, reorder.Random)
	if hy.Stats().NNZInverse >= rd.Stats().NNZInverse {
		t.Errorf("hybrid nnz %d should be below random nnz %d",
			hy.Stats().NNZInverse, rd.Stats().NNZInverse)
	}
}

func TestSelfLoopGraph(t *testing.T) {
	// Self loops exercise the A_uu term in c'.
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 1}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ix := buildFor(t, g, reorder.Natural)
	got, _, err := ix.TopK(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, g, 0, 4, ix.Restart())
	if !sameAnswerSet(got, want, 1e-9) {
		t.Errorf("self-loop graph: got %v want %v", got, want)
	}
}
