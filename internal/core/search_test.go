package core_test

// Algorithm 4 end to end: the tree search (tree.go) as the one engine
// runs it, over a one-shard ShardedIndex — the whole graph as one block
// of factors — checked against the iterative rwr oracle. The search's
// own accounting (SearchStats' Visited and Terminated, which a sharded
// query does not report) is checked on the tree itself, run over exact
// split-solve proximities (treeSearch).

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/shard"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

// oneShard builds the whole-graph index the search tests query: one
// shard under restart probability c (zero: 0.95).
func oneShard(t testing.TB, g *graph.Graph, m reorder.Method, seed int64, c float64) *shard.ShardedIndex {
	t.Helper()
	sx, err := shard.Build(g, shard.Options{Shards: 1, Restart: c, Reorder: m, Seed: seed})
	if err != nil {
		t.Fatalf("shard.Build(%v): %v", m, err)
	}
	return sx
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

// personalizedOracle computes the exact personalized top-k with the
// iterative method.
func personalizedOracle(g *graph.Graph, seeds map[int]float64, k int, c float64) ([]topk.Result, error) {
	restart := make([]float64, g.N())
	total := 0.0
	for _, w := range seeds {
		total += w
	}
	for node, w := range seeds {
		restart[node] = w / total
	}
	want, _, err := rwr.IterativeVec(g.ColumnNormalized(), restart, c, 1e-14, 100000)
	if err != nil {
		return nil, err
	}
	return topk.FromVector(want, k), nil
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
// score ties: a node missing from b is still a valid answer when its
// score ties the k-th place within tol — either of the tied nodes may
// be cut at the boundary (the symmetric shapes in the shared testutil
// suite, grids and disconnected components, make exact boundary ties
// common). Same rule as the shard suite and experiments.Precision.
func sameAnswerSet(a, b []topk.Result, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > tol {
			return false
		}
	}
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

// sameResults reports whether two answers are identical, scores bit for
// bit.
func sameResults(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// reachable counts the nodes a breadth-first search from q reaches.
func reachable(g *graph.Graph, q int) int {
	seen := map[int]bool{q: true}
	queue := []int{q}
	for head := 0; head < len(queue); head++ {
		g.OutNeighbors(queue[head], func(v int, _ float64) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		})
	}
	return len(queue)
}

// treeSearch runs the tree search directly — TreeWS.Search from the
// seeds, or TreeWS.SearchAnyRoot from root when root >= 0 — scoring each
// node with its exact proximity under the restart distribution the
// seeds' weights give (normalised), read from ix's split solve: c times
// one UpperDot of the seeds' L^{-1} pass. ix is g's whole-graph block
// index. It returns the answer and the search's own SearchStats.
func treeSearch(t *testing.T, ix *core.Index, g *graph.Graph, seeds []int, weights []float64, k int, prune bool, root int) ([]topk.Result, core.SearchStats) {
	t.Helper()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	val := make([]float64, len(weights))
	for i, w := range weights {
		val[i] = w / total
	}
	w := ix.NewWorkspace()
	if err := ix.SolveLower(seeds, val, w); err != nil {
		t.Fatal(err)
	}
	score := func(u int) float64 { return ix.Restart() * ix.UpperDot(u, w) }
	b := core.GraphBounds(g, ix.Restart())
	ptr, to := g.OutCSR()
	ws := core.NewTreeWS(g.N())
	heap := topk.New(k)
	var st core.SearchStats
	if root >= 0 {
		ws.SearchAnyRoot(&b, ptr, to, root, seeds[0], score, heap, nil, prune, &st)
	} else {
		ws.Start(seeds)
		ws.Search(&b, ptr, to, score, heap, nil, prune, &st)
	}
	return heap.Results(), st
}

// hybridBlock builds g's Hybrid-ordered whole-graph block index, the
// one a one-shard ShardedIndex holds.
func hybridBlock(t *testing.T, g *graph.Graph, seed int64) *core.Index {
	t.Helper()
	ix, _, err := core.BuildBlock(g, core.BuildOptions{Reorder: reorder.Hybrid, Seed: seed}, reorder.Block{Owned: g.N()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestExactnessAllReorderings(t *testing.T) {
	g := gen.PlantedPartition(150, 4, 0.15, 0.01, 3)
	for _, m := range []reorder.Method{reorder.Degree, reorder.Cluster, reorder.Hybrid, reorder.Random, reorder.Natural} {
		sx := oneShard(t, g, m, 1, 0)
		for _, q := range []int{0, 17, 75, 149} {
			for _, k := range []int{1, 5, 20} {
				got, _, err := sx.TopK(q, k)
				if err != nil {
					t.Fatalf("%v q=%d k=%d: %v", m, q, k, err)
				}
				want := oracle(t, g, q, k, sx.Restart())
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
		sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := rng.Intn(g.N())
		k := 1 + rng.Intn(10)
		got, _, err := sx.TopK(q, k)
		if err != nil {
			return false
		}
		want, err := rwr.TopK(g.ColumnNormalized(), q, k, sx.Restart())
		if err != nil {
			return false
		}
		return sameAnswerSet(trimZeros(got), trimZeros(want), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQueryNodeAlwaysFirst(t *testing.T) {
	g := gen.DirectedScaleFree(120, 3, 0.3, 0.25, 6)
	sx := oneShard(t, g, reorder.Hybrid, 1, 0)
	for q := 0; q < 120; q += 13 {
		rs, _, err := sx.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 || rs[0].Node != q {
			t.Fatalf("q=%d: query should have top proximity, results %v", q, rs)
		}
		if rs[0].Score < sx.Restart() {
			t.Errorf("q=%d: proximity of query %v should be >= c", q, rs[0].Score)
		}
	}
}

// TestPruningReducesWork: on a clustered graph the pruned search scores
// fewer nodes than the unpruned one, which scores every node the query
// reaches, and both return the same answer, scores bit for bit.
func TestPruningReducesWork(t *testing.T) {
	g := gen.PlantedPartition(250, 5, 0.15, 0.005, 7)
	sx := oneShard(t, g, reorder.Hybrid, 1, 0)
	q, k := 10, 5
	a, pruned, err := sx.Search(q, core.SearchOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	b, full, err := sx.Search(q, core.SearchOptions{K: k, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.ProximityComputations >= full.ProximityComputations {
		t.Errorf("pruning did not reduce proximity computations: %d vs %d",
			pruned.ProximityComputations, full.ProximityComputations)
	}
	if n := reachable(g, q); full.ProximityComputations != n {
		t.Errorf("the unpruned search scored %d nodes, the query reaches %d", full.ProximityComputations, n)
	}
	if !sameResults(a, b) {
		t.Errorf("pruned answer %v differs from unpruned %v", a, b)
	}
	// The tree's own accounting: Lemma 2 stopped the pruned search at
	// the one node it visited and did not score.
	ix := hybridBlock(t, g, 1)
	ta, ts := treeSearch(t, ix, g, []int{q}, []float64{1}, k, true, -1)
	tb, tf := treeSearch(t, ix, g, []int{q}, []float64{1}, k, false, -1)
	if !ts.Terminated || ts.Visited != ts.ProximityComputations+1 || ts.ProximityComputations >= tf.ProximityComputations {
		t.Errorf("pruned tree search %+v, unpruned %+v: want early termination after fewer proximities", ts, tf)
	}
	if tf.Terminated || !sameResults(ta, tb) {
		t.Errorf("unpruned tree search %+v; answers %v vs %v", tf, ta, tb)
	}
}

func TestRandomRootStillExactButMoreWork(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.15, 0.01, 8)
	sx := oneShard(t, g, reorder.Hybrid, 1, 0)
	q, k := 3, 5
	want := oracle(t, g, q, k, sx.Restart())
	got, rs, err := sx.Search(q, core.SearchOptions{K: k, RandomRoot: true, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswerSet(got, want, 1e-8) {
		t.Errorf("random-root answer %v, want %v", got, want)
	}
	_, qs, err := sx.Search(q, core.SearchOptions{K: k})
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
	sx := oneShard(t, b.Build(), reorder.Hybrid, 1, 0)
	rs, _, err := sx.TopK(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Node != 0 || rs[1].Node != 1 {
		t.Fatalf("want the 2 reachable results [0 1], got %v", rs)
	}
}

func TestProximityVectorMatchesIterative(t *testing.T) {
	g := gen.CommunityOverlay(150, 4, 8, 0.5, 9)
	sx := oneShard(t, g, reorder.Cluster, 1, 0)
	want, _, err := rwr.Iterative(g.ColumnNormalized(), 42, sx.Restart(), 1e-14, 100000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sx.ProximityVector(42)
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
	sx := oneShard(t, g, reorder.Degree, 1, 0)
	want, _, err := rwr.Iterative(g.ColumnNormalized(), 5, sx.Restart(), 1e-14, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 5, 30, 59} {
		got, err := sx.Proximity(5, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want[u]) > 1e-9 {
			t.Errorf("Proximity(5,%d) = %v, want %v", u, got, want[u])
		}
	}
}

// TestProximityVectorMatchesProximity checks ProximityVector against
// the per-entry Proximity bit for bit, repeatedly and with a query
// asked twice, so no call's state leaks into the next.
func TestProximityVectorMatchesProximity(t *testing.T) {
	g := gen.PlantedPartition(80, 4, 0.2, 0.02, 9)
	sx := oneShard(t, g, reorder.Hybrid, 9, 0)
	for _, q := range []int{0, 17, 3, 17, 79} {
		vec, err := sx.ProximityVector(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{0, 1, q, 40, 79} {
			want, err := sx.Proximity(q, u)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(vec[u]) != math.Float64bits(want) {
				t.Fatalf("q=%d u=%d: vector %v != Proximity %v", q, u, vec[u], want)
			}
		}
	}
}

func TestBuildAndSearchErrors(t *testing.T) {
	block := func(g *graph.Graph, c float64) error {
		_, _, err := core.BuildBlock(g, core.BuildOptions{Restart: c}, reorder.Block{Owned: g.N()}, nil, nil)
		return err
	}
	if err := block(graph.NewBuilder(0).Build(), 0); err == nil {
		t.Error("expected error for empty graph")
	}
	g := gen.ErdosRenyi(10, 30, 11)
	if err := block(g, 1.5); err == nil {
		t.Error("expected error for c > 1")
	}
	if err := block(g, -0.1); err == nil {
		t.Error("expected error for negative c")
	}
	sx := oneShard(t, g, reorder.Hybrid, 1, 0)
	if _, _, err := sx.TopK(-1, 3); err == nil {
		t.Error("expected error for negative query")
	}
	if _, _, err := sx.TopK(10, 3); err == nil {
		t.Error("expected error for query >= n")
	}
	if _, _, err := sx.TopK(0, 0); err == nil {
		t.Error("expected error for k = 0")
	}
	if _, err := sx.Proximity(0, 99); err == nil {
		t.Error("expected error for out-of-range target")
	}
	if _, err := sx.ProximityVector(-2); err == nil {
		t.Error("expected error for out-of-range query")
	}
}

func TestRestartSweepExactness(t *testing.T) {
	// Section 6.3.3: the approach works across restart probabilities.
	g := gen.BarabasiAlbert(80, 3, 12)
	for _, c := range []float64{0.5, 0.7, 0.9, 0.95, 0.99} {
		sx := oneShard(t, g, reorder.Hybrid, 2, c)
		got, _, err := sx.TopK(11, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(t, g, 11, 8, c); !sameAnswerSet(got, want, 1e-7) {
			t.Errorf("c=%v: got %v want %v", c, got, want)
		}
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
	sx := oneShard(t, g, reorder.Natural, 1, 0)
	got, _, err := sx.TopK(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(t, g, 0, 4, sx.Restart()); !sameAnswerSet(got, want, 1e-9) {
		t.Errorf("self-loop graph: got %v want %v", got, want)
	}
}

func TestExcludeRemovesOnlyExcluded(t *testing.T) {
	sx := oneShard(t, gen.PlantedPartition(150, 4, 0.2, 0.01, 1), reorder.Hybrid, 1, 0)
	q := 7
	base, _, err := sx.Search(q, core.SearchOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the query node and the runner-up.
	excl := map[int]bool{base[0].Node: true, base[1].Node: true}
	got, _, err := sx.Search(q, core.SearchOptions{K: 6, Exclude: excl})
	if err != nil {
		t.Fatal(err)
	}
	// The answer must be the unexcluded ranking with the two excluded
	// nodes removed.
	wide, _, err := sx.Search(q, core.SearchOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want []topk.Result
	for _, r := range wide {
		if !excl[r.Node] {
			want = append(want, r)
		}
	}
	if !sameResults(got, want) {
		t.Errorf("excluding %v: got %v, want %v", excl, got, want)
	}
}

func TestExcludeStillExactUnderPruning(t *testing.T) {
	// Exclusion interacts with the pruning threshold (θ comes only from
	// non-excluded candidates); the answer must still agree with the
	// unpruned search.
	sx := oneShard(t, gen.BarabasiAlbert(200, 3, 2), reorder.Hybrid, 2, 0)
	excl := map[int]bool{}
	for u := 0; u < 200; u += 3 {
		excl[u] = true
	}
	for _, q := range []int{1, 50, 121} {
		a, _, err := sx.Search(q, core.SearchOptions{K: 5, Exclude: excl})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := sx.Search(q, core.SearchOptions{K: 5, Exclude: excl, DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(a, b) {
			t.Errorf("q=%d: pruned %v vs unpruned %v", q, a, b)
		}
	}
}

func TestExcludeOutOfRangeIgnored(t *testing.T) {
	sx := oneShard(t, gen.ErdosRenyi(30, 120, 3), reorder.Degree, 1, 0)
	want, _, err := sx.Search(0, core.SearchOptions{K: 3, Exclude: map[int]bool{1: true}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sx.Search(0, core.SearchOptions{K: 3, Exclude: map[int]bool{-5: true, 999: true, 1: true, 2: false}})
	if err != nil {
		t.Fatalf("out-of-range exclusions must be ignored, got %v", err)
	}
	if !sameResults(got, want) {
		t.Errorf("out-of-range exclusions changed the answer: %v, want %v", got, want)
	}
}

func TestPersonalizedMatchesIterativeOracle(t *testing.T) {
	g := gen.PlantedPartition(150, 4, 0.2, 0.01, 1)
	sx := oneShard(t, g, reorder.Hybrid, 1, 0)
	for ci, seeds := range []map[int]float64{
		{3: 1},
		{3: 1, 80: 1},
		{3: 5, 80: 1, 149: 2},
		{0: 0.1, 1: 0.1, 2: 0.1},
	} {
		want, err := personalizedOracle(g, seeds, 10, sx.Restart())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sx.TopKPersonalized(seeds, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(got, want, 1e-8) {
			t.Errorf("case %d: got %v, want %v", ci, got, want)
		}
	}
}

// TestPersonalizedSingleSeedEqualsTopK: one seed, whatever its weight,
// is the single-query restart vector, so the answer is TopK's bit for
// bit.
func TestPersonalizedSingleSeedEqualsTopK(t *testing.T) {
	sx := oneShard(t, gen.BarabasiAlbert(120, 3, 2), reorder.Hybrid, 2, 0)
	for _, q := range []int{0, 50, 119} {
		a, _, err := sx.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := sx.TopKPersonalized(map[int]float64{q: 7.5}, 8) // weight normalises away
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(a, b) {
			t.Errorf("q=%d: TopK %v vs personalized %v", q, a, b)
		}
	}
}

func TestPersonalizedPropertyRandomSeedSets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		g := gen.ErdosRenyi(n, 5*n, seed)
		sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		seeds := map[int]float64{}
		for len(seeds) < 1+rng.Intn(4) {
			seeds[rng.Intn(n)] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(8)
		got, _, err := sx.TopKPersonalized(seeds, k)
		if err != nil {
			return false
		}
		want, err := personalizedOracle(g, seeds, k, sx.Restart())
		if err != nil {
			return false
		}
		return sameAnswerSet(trimZeros(got), trimZeros(want), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPersonalizedPrunes: with seeds inside communities the multi-seed
// tree stops after a fraction of the graph.
func TestPersonalizedPrunes(t *testing.T) {
	g := gen.PlantedPartition(300, 6, 0.15, 0.003, 3)
	sx := oneShard(t, g, reorder.Hybrid, 3, 0)
	rs, st, err := sx.TopKPersonalized(map[int]float64{5: 1, 60: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProximityComputations > g.N()/2 {
		t.Errorf("personalized search computed %d proximities on a %d-node graph", st.ProximityComputations, g.N())
	}
	// The multi-seed tree itself stops by Lemma 2, on the same answer.
	ix := hybridBlock(t, g, 3)
	tr, ts := treeSearch(t, ix, g, []int{5, 60}, []float64{1, 1}, 5, true, -1)
	if !ts.Terminated || ts.ProximityComputations > g.N()/2 {
		t.Errorf("personalized tree search %+v on a %d-node graph: want early termination", ts, g.N())
	}
	if !sameAnswerSet(tr, rs, 1e-12) {
		t.Errorf("personalized tree search %v, sharded %v", tr, rs)
	}
}

func TestPersonalizedValidation(t *testing.T) {
	sx := oneShard(t, gen.ErdosRenyi(20, 60, 4), reorder.Degree, 1, 0)
	for name, seeds := range map[string]map[int]float64{
		"empty seed set":   nil,
		"out-of-range":     {25: 1},
		"zero weight":      {1: 0},
		"negative weight":  {1: -2},
		"negative seed id": {-1: 1},
	} {
		if _, _, err := sx.TopKPersonalized(seeds, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := sx.TopKPersonalized(map[int]float64{1: 1}, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

// TestPersonalizedAfterBatchRefactor guards the pooled push state across
// the two entry points: the same query through TopKPersonalized and a
// single-seed Search must agree.
func TestPersonalizedAfterBatchRefactor(t *testing.T) {
	sx := oneShard(t, gen.PlantedPartition(90, 4, 0.2, 0.02, 3), reorder.Hybrid, 3, 0)
	single, _, err := sx.Search(5, core.SearchOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	pers, _, err := sx.TopKPersonalized(map[int]float64{5: 2.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(single, pers) {
		t.Errorf("Search %v vs personalized %v", single, pers)
	}
}

// TestSearchStatsInvariants checks structural invariants of the tree
// search's accounting on random graphs, over exact proximities: every
// scored node was visited, visits never exceed n, an unpruned search
// visits and scores exactly the nodes the query reaches and never
// terminates, a random root visits every node, and pruning and the root
// change only the work, never the answer. (A sharded query reports its
// row dots as both Visited and ProximityComputations; see
// ShardedIndex.Search.)
func TestSearchStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(80, 320, seed)
		ix := hybridBlock(t, g, seed)
		q := int(uint(seed) % 80)
		one := []int{q}
		pruned, ps := treeSearch(t, ix, g, one, []float64{1}, 5, true, -1)
		full, fs := treeSearch(t, ix, g, one, []float64{1}, 5, false, -1)
		anyRoot, rs := treeSearch(t, ix, g, one, []float64{1}, 5, true, int(uint(seed*7+3)%80))
		if ps.ProximityComputations > ps.Visited || ps.Visited > g.N() {
			return false
		}
		if n := reachable(g, q); fs.Visited != n || fs.ProximityComputations != n || fs.Terminated {
			return false // without pruning every reached node is visited and scored
		}
		if rs.Visited != g.N() || rs.ProximityComputations > rs.Visited || rs.Terminated {
			return false // a random root visits every node and never terminates
		}
		return ps.ProximityComputations <= fs.ProximityComputations && sameResults(pruned, full) && sameResults(anyRoot, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestK1AlwaysQueryNode(t *testing.T) {
	// With K=1 the answer is the query node itself (p_q >= c > any other
	// node's proximity) and the search should terminate almost instantly.
	sx := oneShard(t, gen.BarabasiAlbert(150, 3, 1), reorder.Hybrid, 1, 0)
	for q := 0; q < 150; q += 17 {
		rs, st, err := sx.TopK(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Node != q {
			t.Errorf("q=%d: K=1 answer %v", q, rs)
		}
		if st.NodesEvaluated > 3 {
			t.Errorf("q=%d: K=1 needed %d proximity computations", q, st.NodesEvaluated)
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
	sx := oneShard(t, b.Build(), reorder.Hybrid, 1, 0) // nodes 0 and 4 are isolated
	rs, _, err := sx.TopK(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Node != 0 {
		t.Fatalf("isolated query answer %v, want just node 0", rs)
	}
	if rs[0].Score < sx.Restart()-1e-12 {
		t.Errorf("isolated query proximity %v, want >= c", rs[0].Score)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	sx := oneShard(t, graph.NewBuilder(1).Build(), reorder.Natural, 1, 0)
	rs, _, err := sx.TopK(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Node != 0 {
		t.Errorf("single-node graph answer %v", rs)
	}
}

func TestVisitOrderMatchesEagerBFS(t *testing.T) {
	// The lazily expanded tree must reach exactly what an eager BFS
	// from the query reaches: with pruning disabled a one-shard query
	// scores that set and nothing else (its Visited is that count).
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(40, 160, seed)
		sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := int(uint(seed) % 40)
		_, st, err := sx.Search(q, core.SearchOptions{K: 3, DisablePruning: true})
		return err == nil && st.Visited == reachable(g, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWorkersOptionEquivalence(t *testing.T) {
	// The Workers knob parallelises precompute only; answers must be
	// bit-identical.
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 5)
	build := func(workers int) *shard.ShardedIndex {
		sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: reorder.Hybrid, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sx
	}
	a, b := build(1), build(8)
	for _, q := range []int{0, 60, 119} {
		ra, _, err := a.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(ra, rb) {
			t.Errorf("q=%d: %v vs %v", q, ra, rb)
		}
	}
}

// TestConcurrentQueries exercises the documented guarantee that an index
// is safe for concurrent queries: many goroutines issue overlapping
// TopK / ProximityVector / TopKPersonalized calls and every answer must
// equal the serial answer. Run with -race to validate the data-race
// claim.
func TestConcurrentQueries(t *testing.T) {
	sx := oneShard(t, gen.PlantedPartition(200, 5, 0.2, 0.01, 1), reorder.Hybrid, 1, 0)
	queries := []int{0, 17, 40, 99, 150, 199}
	serial := map[int][]topk.Result{}
	for _, q := range queries {
		rs, _, err := sx.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		serial[q] = rs
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				q := queries[(worker+rep)%len(queries)]
				rs, _, err := sx.TopK(q, 10)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameResults(rs, serial[q]) {
					errs <- "concurrent query answer diverged from serial answer"
					return
				}
				if rep%5 == 0 {
					if _, err := sx.ProximityVector(q); err != nil {
						errs <- err.Error()
						return
					}
				}
				if rep%7 == 0 {
					if _, _, err := sx.TopKPersonalized(map[int]float64{q: 1, (q + 1) % sx.N(): 2}, 5); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
