package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

// scoreTol is the proximity agreement the validation suite asserts
// between shard counts and against the iterative oracle.
const scoreTol = 1e-9

// buildWhole builds the whole-graph reference: one shard, so the graph
// is one block of factors, as the paper's experiments query it.
func buildWhole(t *testing.T, g *graph.Graph, c float64) *ShardedIndex {
	t.Helper()
	return buildSharded(t, g, 1, c)
}

func buildSharded(t *testing.T, g *graph.Graph, shards int, c float64) *ShardedIndex {
	t.Helper()
	sx, err := Build(g, Options{Shards: shards, Restart: c, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatalf("shard.Build(shards=%d): %v", shards, err)
	}
	return sx
}

// sameAnswerSet compares rankings positionally within tol, allowing
// reordering only among score ties (the idiom the core oracle tests use:
// two nodes whose true proximities coincide may come back in either
// order depending on floating-point summation order).
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
		// A node missing from b entirely is still a valid answer when its
		// score ties the k-th place within tol: either of the tied nodes
		// may be cut at the boundary.
		if !found && math.Abs(a[i].Score-b[len(b)-1].Score) > tol {
			return false
		}
	}
	return true
}

// trimZeros drops zero-proximity padding from the iterative oracle (it
// fills up with unreachable nodes when fewer than k are reachable).
func trimZeros(rs []topk.Result) []topk.Result {
	out := rs[:0:0]
	for _, r := range rs {
		if r.Score > 1e-12 {
			out = append(out, r)
		}
	}
	return out
}

// testGraphs are the shapes the exactness suite sweeps — the shared
// testutil suite: community-heavy (the favourable case for sharding),
// scale-free with reciprocation (cycles across shards), uniformly
// random (worst-case cut mass), plus grids, disconnected components
// and self-loop-heavy graphs (ghost-sink normalisation corners).
func testGraphs(seed int64) map[string]*graph.Graph {
	return testutil.Shapes(seed)
}

// TestCrossShardExactness is the tentpole acceptance test: on every graph
// shape, for varied k, restart probability and shard count (including the
// 1-shard and n-shard degenerate cases), the sharded answer matches both
// the whole-graph (one-shard) index and the iterative oracle.
func TestCrossShardExactness(t *testing.T) {
	for name, g := range testGraphs(11) {
		n := g.N()
		for _, c := range []float64{0.95, 0.5} {
			whole := buildWhole(t, g, c)
			for _, shards := range []int{1, 2, 5, n} {
				sx := buildSharded(t, g, shards, c)
				if sx.Shards() != shards {
					t.Fatalf("%s: built %d shards, want %d", name, sx.Shards(), shards)
				}
				for _, q := range []int{0, n / 3, n - 1} {
					for _, k := range []int{1, 5, 25} {
						want, _, err := whole.TopK(q, k)
						if err != nil {
							t.Fatal(err)
						}
						got, qs, err := sx.TopK(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !qs.Converged {
							t.Errorf("%s c=%v shards=%d q=%d: push did not converge (residual %g)", name, c, shards, q, qs.ResidualMass)
						}
						if !sameAnswerSet(got, want, scoreTol) {
							t.Errorf("%s c=%v shards=%d q=%d k=%d:\n got %v\nwant %v", name, c, shards, q, k, got, want)
						}
						oracle, err := rwr.TopK(g.ColumnNormalized(), q, k, c)
						if err != nil {
							t.Fatal(err)
						}
						if !sameAnswerSet(got, trimZeros(oracle), scoreTol) {
							t.Errorf("%s c=%v shards=%d q=%d k=%d vs iterative:\n got %v\nwant %v", name, c, shards, q, k, got, trimZeros(oracle))
						}
					}
				}
			}
		}
	}
}

// TestCrossShardExactnessProperty drives randomized graphs, shard counts,
// ks and queries through the three-way equivalence.
func TestCrossShardExactnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		g := gen.ErdosRenyi(n, 4*n, seed)
		c := 0.3 + 0.65*rng.Float64()
		shards := 1 + rng.Intn(6)
		whole, err := Build(g, Options{Shards: 1, Restart: c, Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		sx, err := Build(g, Options{Shards: shards, Restart: c, Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		q := rng.Intn(n)
		k := 1 + rng.Intn(12)
		want, _, err := whole.TopK(q, k)
		if err != nil {
			return false
		}
		got, _, err := sx.TopK(q, k)
		if err != nil {
			return false
		}
		if !sameAnswerSet(got, want, scoreTol) {
			t.Logf("seed=%d n=%d c=%v shards=%d q=%d k=%d:\n got %v\nwant %v", seed, n, c, shards, q, k, got, want)
			return false
		}
		oracle, err := rwr.TopK(g.ColumnNormalized(), q, k, c)
		if err != nil {
			return false
		}
		return sameAnswerSet(got, trimZeros(oracle), scoreTol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestProximityAgreesWithMonolithic checks the point and vector proximity
// surfaces against the whole graph's factors, a one-shard index.
func TestProximityAgreesWithMonolithic(t *testing.T) {
	g := gen.DirectedScaleFree(130, 3, 0.25, 0.5, 5)
	whole := buildWhole(t, g, 0.95)
	sx := buildSharded(t, g, 4, 0.95)
	for _, q := range []int{0, 40, 129} {
		want, err := whole.ProximityVector(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.ProximityVector(q)
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			if math.Abs(got[u]-want[u]) > scoreTol {
				t.Fatalf("q=%d u=%d: proximity %g, want %g", q, u, got[u], want[u])
			}
		}
		p, err := sx.Proximity(q, (q+31)%g.N())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-want[(q+31)%g.N()]) > scoreTol {
			t.Fatalf("q=%d: point proximity %g, want %g", q, p, want[(q+31)%g.N()])
		}
	}
}

// TestProximityMatchesTopKScore pins one answer per pair: for every
// (q, u) of TopK(q, 10), Proximity(q, u) returns the very bits TopK
// ranked u with — over the test shapes at 1, 2 and 8 shards, in process
// and through a RemoteSolver, whose one-row prefix {u} must read the
// same sum the in-process rank does (engine 0 is in process, 1 the
// coordinator).
func TestProximityMatchesTopKScore(t *testing.T) {
	graphs := testutil.Shapes(45)
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	pairs := 0
	for _, name := range names {
		g := graphs[name]
		for _, shards := range []int{1, 2, 8} {
			local, co, _ := remotePair(t, g, Options{Shards: shards, Reorder: reorder.Hybrid, Seed: 1})
			for q := 0; q < g.N(); q += 7 {
				res, _, err := local.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					for mode, sx := range []*ShardedIndex{local, co} {
						p, err := sx.Proximity(q, r.Node)
						if err != nil {
							t.Fatalf("%s/%d engine %d: Proximity(%d,%d): %v", name, shards, mode, q, r.Node, err)
						}
						if math.Float64bits(p) != math.Float64bits(r.Score) {
							t.Errorf("%s/%d engine %d: Proximity(%d,%d) = %v, TopK scored %v", name, shards, mode, q, r.Node, p, r.Score)
						}
					}
					pairs++
				}
			}
		}
	}
	t.Logf("%d (q, u) pairs checked", pairs)
}

// TestPersonalizedAndExclude checks the two serving-surface extensions
// against the whole-graph (one-shard) index.
func TestPersonalizedAndExclude(t *testing.T) {
	g := gen.PlantedPartition(100, 5, 0.25, 0.03, 9)
	whole := buildWhole(t, g, 0.95)
	sx := buildSharded(t, g, 3, 0.95)

	seeds := map[int]float64{3: 1, 41: 2, 97: 0.5}
	want, _, err := whole.TopKPersonalized(seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sx.TopKPersonalized(seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswerSet(got, want, scoreTol) {
		t.Errorf("personalized:\n got %v\nwant %v", got, want)
	}

	opt := core.SearchOptions{K: 6, Exclude: map[int]bool{3: true, 7: true, 500: true}}
	wantEx, _, err := whole.Search(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotEx, _, err := sx.Search(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswerSet(gotEx, wantEx, scoreTol) {
		t.Errorf("exclude:\n got %v\nwant %v", gotEx, wantEx)
	}
	for _, r := range gotEx {
		if r.Node == 3 || r.Node == 7 {
			t.Errorf("excluded node %d in answer", r.Node)
		}
	}
}

// TestParallelBuildDeterminism checks that the worker pool does not
// change the built index: answers are identical whatever Workers is.
func TestParallelBuildDeterminism(t *testing.T) {
	g := gen.DirectedScaleFree(200, 3, 0.3, 0.4, 13)
	a, err := Build(g, Options{Shards: 6, Reorder: reorder.Hybrid, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Options{Shards: 6, Reorder: reorder.Hybrid, Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < g.N(); q += 23 {
		ra, _, err := a.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("q=%d: %d vs %d results", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("q=%d i=%d: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}

// TestConcurrentQueries exercises the read path from many goroutines so
// the race detector can vouch for the immutability claim.
func TestConcurrentQueries(t *testing.T) {
	g := gen.DirectedScaleFree(150, 3, 0.3, 0.4, 17)
	sx := buildSharded(t, g, 4, 0.95)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for q := w; q < g.N(); q += 8 {
				if _, _, err := sx.TopK(q, 5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardPruning checks that on a strongly clustered graph a query
// deep inside one community does not have to solve every shard.
func TestShardPruning(t *testing.T) {
	// Two planted communities joined by a single weak edge, split into
	// many shards: mass crossing several cut boundaries decays below the
	// tolerance before reaching distant shards.
	b := graph.NewBuilder(300)
	for blk := 0; blk < 10; blk++ {
		base := blk * 30
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j += 7 {
				if err := b.AddUndirected(base+i, base+j, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if blk > 0 {
			if err := b.AddUndirected(base-1, base, 1e-6); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	sx := buildSharded(t, g, 10, 0.95)
	_, qs, err := sx.TopK(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Converged {
		t.Fatalf("did not converge: %+v", qs)
	}
	if qs.ShardsSolved >= sx.Shards() {
		t.Errorf("expected pruning to skip distant shards, solved %d of %d (%+v)", qs.ShardsSolved, sx.Shards(), qs)
	}
	// Pruning must not cost exactness.
	whole := buildWhole(t, g, 0.95)
	want, _, err := whole.TopK(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := sx.TopK(2, 5)
	if !sameAnswerSet(got, want, scoreTol) {
		t.Errorf("pruned answer diverged:\n got %v\nwant %v", got, want)
	}
}

// TestBuildErrors covers input validation.
func TestBuildErrors(t *testing.T) {
	if _, err := Build(graph.NewBuilder(0).Build(), Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	g := gen.ErdosRenyi(10, 30, 1)
	if _, err := Build(g, Options{Restart: 1.5}); err == nil {
		t.Error("restart 1.5 accepted")
	}
	sx := buildSharded(t, g, 3, 0.95)
	if _, _, err := sx.TopK(-1, 5); err == nil {
		t.Error("negative query accepted")
	}
	if _, _, err := sx.TopK(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := sx.TopKPersonalized(nil, 5); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, _, err := sx.TopKPersonalized(map[int]float64{2: -1}, 5); err == nil {
		t.Error("negative seed weight accepted")
	}
	if _, err := sx.Proximity(0, 99); err == nil {
		t.Error("out-of-range proximity target accepted")
	}
}

// TestPersonalizedRefusesNonFiniteSeeds: a NaN or infinite seed
// weight, or finite weights whose total overflows, is an error — not
// an empty answer from a push seeded with no mass — while the same
// seeds with ordinary weights answer.
func TestPersonalizedRefusesNonFiniteSeeds(t *testing.T) {
	sx := buildSharded(t, gen.ErdosRenyi(200, 800, 5), 2, 0.95)
	if got, _, err := sx.TopKPersonalized(map[int]float64{0: 1, 1: 1}, 3); err != nil || len(got) != 3 {
		t.Fatalf("ordinary seeds: %d results, err %v", len(got), err)
	}
	for name, seeds := range map[string]map[int]float64{
		"NaN":            {0: math.NaN(), 1: 1},
		"+Inf":           {0: math.Inf(1), 1: 1},
		"total overflow": {0: 1e308, 1: 1e308},
	} {
		if got, _, err := sx.TopKPersonalized(seeds, 3); err == nil {
			t.Errorf("%s: accepted, %d results", name, len(got))
		}
	}
}

// TestShardCountClamp checks that requesting more shards than nodes
// clamps instead of failing, and the stats describe the real layout.
func TestShardCountClamp(t *testing.T) {
	g := gen.ErdosRenyi(12, 40, 3)
	sx := buildSharded(t, g, 50, 0.95)
	if sx.Shards() != 12 {
		t.Fatalf("got %d shards, want 12", sx.Shards())
	}
	st := sx.Stats()
	totalNodes := 0
	for _, s := range st.Sizes {
		if s != 1 {
			t.Errorf("n-shard build has shard of size %d", s)
		}
		totalNodes += s
	}
	if totalNodes != 12 {
		t.Errorf("sizes sum to %d, want 12", totalNodes)
	}
	if st.NNZInverse == 0 {
		t.Error("stats missing inverse nnz")
	}
}
