package shard

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

// rebuildOracle builds the from-scratch index Apply must be
// bit-identical to: same graph, same pinned assignment, same build
// inputs.
func rebuildOracle(t *testing.T, sx *ShardedIndex) *ShardedIndex {
	t.Helper()
	oracle, err := Build(sx.Graph(), Options{
		Restart:    sx.Restart(),
		Reorder:    reorder.Hybrid,
		Seed:       1,
		Assignment: sx.Assignment(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// requireBitIdentical asserts two indexes answer a query spread with
// exactly equal results — same nodes, same order, same float bits.
func requireBitIdentical(t *testing.T, got, want *ShardedIndex, k int) {
	t.Helper()
	if got.N() != want.N() || got.Shards() != want.Shards() {
		t.Fatalf("shape: got n=%d s=%d, want n=%d s=%d", got.N(), got.Shards(), want.N(), want.Shards())
	}
	// Every part's cut list — rebuilt, re-targeted or shared by an
	// Apply — must be the one a fresh build derives.
	for si, p := range got.parts {
		q := want.parts[si]
		if !slices.Equal(p.cutRows, q.cutRows) || !slices.Equal(p.cutRowPtr, q.cutRowPtr) ||
			!slices.EqualFunc(p.cuts, q.cuts, func(a, b cutEdge) bool {
				return a.dstShard == b.dstShard && a.dst == b.dst && math.Float64bits(a.w) == math.Float64bits(b.w)
			}) {
			t.Fatalf("shard %d: cut list differs from a fresh build's", si)
		}
	}
	for q := 0; q < got.N(); q += 1 + got.N()/23 {
		a, _, err := got.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := want.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q=%d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("q=%d i=%d: %v vs %v", q, i, a[i], b[i])
			}
		}
	}
}

func TestApplyIntraShardEdgeRebuildsOneShard(t *testing.T) {
	g := testutil.Clustered(160, 4, 3)
	sx := buildSharded(t, g, 4, 0.95)
	// Find an intra-shard edge.
	var from, to = -1, -1
	for _, e := range g.Edges() {
		if e.From != e.To && sx.HomeShard(e.From) == sx.HomeShard(e.To) {
			from, to = e.From, e.To
			break
		}
	}
	if from < 0 {
		t.Fatal("no intra-shard edge in test graph")
	}
	d := g.NewDelta()
	if err := d.AddEdge(from, to, 2.5); err != nil {
		t.Fatal(err)
	}
	sx2, us, err := sx.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if us.ShardsRebuilt != 1 || us.CutsPatched != 1 || us.Repartitioned || us.CutCrossing != 0 {
		t.Fatalf("stats = %+v, want exactly one shard rebuilt", us)
	}
	if sx2.Epoch() != 1 {
		t.Fatalf("epoch = %d", sx2.Epoch())
	}
	// Untouched shards are shared by pointer with the old epoch.
	shared := 0
	for si := range sx.parts {
		if sx.parts[si] == sx2.parts[si] {
			shared++
		}
	}
	if shared != 3 {
		t.Fatalf("%d parts shared, want 3", shared)
	}
	requireBitIdentical(t, sx2, rebuildOracle(t, sx2), 8)
	// Old epoch still answers on the old graph.
	requireBitIdentical(t, sx, rebuildOracle(t, sx), 8)
}

func TestApplyCutCrossingEdge(t *testing.T) {
	g := testutil.Clustered(160, 4, 7)
	sx := buildSharded(t, g, 4, 0.95)
	// A brand-new edge between nodes in different shards.
	var from, to = -1, -1
	for u := 0; u < g.N() && from < 0; u++ {
		for v := 0; v < g.N(); v++ {
			if sx.HomeShard(u) != sx.HomeShard(v) {
				from, to = u, v
				break
			}
		}
	}
	d := g.NewDelta()
	if err := d.AddEdge(from, to, 1.5); err != nil {
		t.Fatal(err)
	}
	sx2, us, err := sx.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if us.CutCrossing != 1 || us.ShardsRebuilt != 1 {
		t.Fatalf("stats = %+v", us)
	}
	if sx2.Stats().CutEdges != sx.Stats().CutEdges+1 {
		t.Fatalf("cut edges %d, want %d", sx2.Stats().CutEdges, sx.Stats().CutEdges+1)
	}
	requireBitIdentical(t, sx2, rebuildOracle(t, sx2), 8)

	// And removing it again restores the original answers (modulo the
	// epoch counter).
	d2 := sx2.Graph().NewDelta()
	if err := d2.RemoveEdge(from, to); err != nil {
		t.Fatal(err)
	}
	sx3, _, err := sx2.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	if sx3.Epoch() != 2 {
		t.Fatalf("epoch = %d", sx3.Epoch())
	}
	requireBitIdentical(t, sx3, sx, 8)
}

func TestApplyNodeInsertionGoesToLeastLoadedShard(t *testing.T) {
	g := testutil.PowerLaw(90, 5)
	sx := buildSharded(t, g, 3, 0.95)
	smallest := 0
	for si, sz := range sx.Stats().Sizes {
		if sz < sx.Stats().Sizes[smallest] {
			smallest = si
		}
	}
	d := g.NewDelta()
	id := d.AddNode()
	if err := d.AddEdge(id, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(7, id, 1); err != nil {
		t.Fatal(err)
	}
	sx2, us, err := sx.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if us.NodesAdded != 1 {
		t.Fatalf("stats = %+v", us)
	}
	if sx2.HomeShard(id) != smallest {
		t.Fatalf("node %d homed to shard %d, want least-loaded %d", id, sx2.HomeShard(id), smallest)
	}
	if sx2.N() != 91 {
		t.Fatalf("n = %d", sx2.N())
	}
	requireBitIdentical(t, sx2, rebuildOracle(t, sx2), 8)
	// The inserted node both ranks and is ranked.
	rs, _, err := sx2.TopK(id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("inserted node sees nothing")
	}
}

func TestApplyStalenessTriggersRepartition(t *testing.T) {
	g := testutil.Clustered(120, 3, 9)
	sx, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1, StalenessLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Insert nodes one batch at a time until a repartition fires. Each
	// inserted node is wired into nodes of shard 2's community, so once
	// re-homing runs they should migrate toward their neighbours.
	anchor := -1
	for u := 0; u < g.N(); u++ {
		if sx.HomeShard(u) == 2 {
			anchor = u
			break
		}
	}
	repartitioned := false
	var us UpdateStats
	for round := 0; round < 10 && !repartitioned; round++ {
		d := sx.Graph().NewDelta()
		for j := 0; j < 3; j++ { // spread across all shards' staleness counters
			id := d.AddNode()
			if err := d.AddEdge(id, anchor, 5); err != nil {
				t.Fatal(err)
			}
			if err := d.AddEdge(anchor, id, 5); err != nil {
				t.Fatal(err)
			}
		}
		sx, us, err = sx.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		repartitioned = repartitioned || us.Repartitioned
	}
	if !repartitioned {
		t.Fatal("staleness limit 4 never triggered a repartition across 10 insertions")
	}
	if us.NodesMoved == 0 {
		t.Error("repartition moved nothing")
	}
	// Every shard still owns nodes and answers still match a from-scratch
	// build on the final assignment.
	for si, sz := range sx.Stats().Sizes {
		if sz == 0 {
			t.Fatalf("shard %d emptied", si)
		}
	}
	requireBitIdentical(t, sx, rebuildOracle(t, sx), 6)
}

func TestApplyValidation(t *testing.T) {
	g := testutil.ErdosRenyi(40, 160, 2)
	sx := buildSharded(t, g, 3, 0.95)
	// Mismatched delta base.
	if _, _, err := sx.Apply(graph.NewDelta(g.N() + 5)); err == nil {
		t.Error("mismatched delta base accepted")
	}
	// Removal of a nonexistent edge fails and leaves the index usable.
	d := g.NewDelta()
	var missing [2]int
	em := map[[2]int]bool{}
	for _, e := range g.Edges() {
		em[[2]int{e.From, e.To}] = true
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && !em[[2]int{u, v}] {
				missing = [2]int{u, v}
			}
		}
	}
	if err := d.RemoveEdge(missing[0], missing[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sx.Apply(d); err == nil {
		t.Error("removal of missing edge accepted")
	}
	if _, _, err := sx.TopK(0, 3); err != nil {
		t.Errorf("index unusable after failed Apply: %v", err)
	}
}

func TestBuildWithPinnedAssignment(t *testing.T) {
	g := testutil.PowerLaw(60, 11)
	rng := rand.New(rand.NewSource(1))
	asg := make([]int, g.N())
	for u := range asg {
		asg[u] = rng.Intn(4)
	}
	sx, err := Build(g, Options{Assignment: asg, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 4 {
		t.Fatalf("shards = %d", sx.Shards())
	}
	for u, want := range asg {
		if sx.HomeShard(u) != want {
			t.Fatalf("node %d homed to %d, want %d", u, sx.HomeShard(u), want)
		}
	}
	// The pinned build stays exact versus the whole-graph index.
	whole := buildWhole(t, g, 0.95)
	for _, q := range []int{0, 17, 59} {
		want, _, err := whole.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sx.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(got, want, scoreTol) {
			t.Fatalf("q=%d: got %v want %v", q, got, want)
		}
	}
	// Degenerate assignments are rejected.
	if _, err := Build(g, Options{Assignment: []int{0}}); err == nil {
		t.Error("short assignment accepted")
	}
	bad := make([]int, g.N()) // all zeros but claims shard 2 via one entry
	bad[0] = 2
	if _, err := Build(g, Options{Assignment: bad}); err == nil {
		t.Error("assignment with empty shard accepted")
	}
	neg := make([]int, g.N())
	neg[3] = -1
	if _, err := Build(g, Options{Assignment: neg}); err == nil {
		t.Error("negative assignment accepted")
	}
}

// TestApplyChainMatchesOracleEveryStep drives a random op mix through a
// chain of Applies, asserting the bit-identity invariant after every
// step and exactness against the iterative oracle at the end (that half
// lives in the differential harness; here we pin the chain mechanics).
func TestApplyChainMatchesOracleEveryStep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.PowerLaw(100, 21)
	sx := buildSharded(t, g, 4, 0.95)
	for step := 0; step < 6; step++ {
		d := testutil.RandomDelta(rng, sx.Graph(), 5)
		next, us, err := sx.Apply(d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if us.Epoch != step+1 {
			t.Fatalf("step %d: epoch %d", step, us.Epoch)
		}
		sx = next
		requireBitIdentical(t, sx, rebuildOracle(t, sx), 7)
	}
}

var _ = topk.Result{} // keep the import stable across edits
