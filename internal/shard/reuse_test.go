package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// reuseCounts is the part of UpdateStats that says how a rebuild was
// done rather than what it produced.
type reuseCounts struct {
	rebuilt, communities, reused, solved int
}

func countsOf(us UpdateStats) reuseCounts {
	return reuseCounts{us.ShardsRebuilt, us.CommunitiesReused, us.ColumnsReused, us.ColumnsSolved}
}

// checkCounts compares the counts to want exactly on amd64, where the
// orderings are pinned (TestGoldenIndexBytes); elsewhere a fused
// multiply-add may move a Louvain tie, so only the path is checked.
func checkCounts(t *testing.T, label string, us UpdateStats, want reuseCounts) {
	t.Helper()
	got := countsOf(us)
	if got.rebuilt != want.rebuilt || got.communities != want.communities || (got.reused == 0) != (want.reused == 0) {
		t.Fatalf("%s: %+v, want %+v", label, got, want)
	}
	if runtime.GOARCH == "amd64" && got != want {
		t.Fatalf("%s: %+v, want exactly %+v", label, got, want)
	}
}

// TestApplyReusePath pins which path each kind of update takes, which
// the bit-identity harnesses cannot see: a rebuild that silently stops
// reusing is exact, only slower. On a graph shaped like the benchmark's
// (8 shards of ~100-node communities), two edges crossing the cut from
// nodes that already own cut edges reuse both shards' communities and
// ≥ 90 % of their inverse columns, and after a save and load the same
// update reuses the same communities and columns; an edge inside a
// shard recomputes its communities; a node insertion and a
// re-partition rebuild from nothing.
func TestApplyReusePath(t *testing.T) {
	g := gen.CommunityOverlay(25000, 3, 256, 0.995, 7)
	sx, err := Build(g, Options{Shards: 8, Reorder: reorder.Hybrid, Seed: 1, StalenessLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(label string, d *graph.Delta) UpdateStats {
		t.Helper()
		next, us, err := sx.Apply(d)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if us.ColumnsReused == 0 && us.CommunitiesReused == 0 {
			return us
		}
		// The reuse is only worth pinning if the result is the build's.
		want, err := Build(next.Graph(), Options{Reorder: reorder.Hybrid, Seed: 1, Assignment: next.Assignment()})
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range us.DirtyShards {
			if err := sameShardIndex(next.parts[si].ix, want.parts[si].ix); err != nil {
				t.Fatalf("%s: shard %d differs from a fresh build: %v", label, si, err)
			}
		}
		return us
	}

	// Two cut-crossing edges from cut owners of shards 2 and 5: an
	// edge op whose source already owns a cut edge moves no node of the
	// block ordering.
	d := g.NewDelta()
	for _, si := range []int{2, 5} {
		p := sx.parts[si]
		u := int(p.nodes[p.cutRows[len(p.cutRows)/3]])
		v := int(sx.parts[(si+3)%8].nodes[7])
		if err := d.AddEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	us := apply("cut-crossing", d)
	checkCounts(t, "cut-crossing", us, reuseCounts{2, 2, 12432, 72})
	if frac := float64(us.ColumnsReused) / float64(us.ColumnsReused+us.ColumnsSolved); frac < 0.9 {
		t.Fatalf("cut-crossing: copied %.1f %% of the inverse columns, want ≥ 90 %%", 100*frac)
	}

	// Each shard file keeps its block's communities: after a load the
	// same update copies the same columns out of the sealed shard files
	// and orders by the saved communities, bit-identically to a build.
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	built := sx
	if sx, err = Open(dir, LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	us = apply("after a load", d)
	if us.CommunitiesReused == 0 {
		t.Fatal("after a load: the saved communities were not reused")
	}
	checkCounts(t, "after a load", us, reuseCounts{2, 2, 12432, 72})
	sx = built

	// An edge inside shard 4.
	p := sx.parts[4]
	d = g.NewDelta()
	if err := d.AddEdge(int(p.nodes[10]), int(p.nodes[20]), 1); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "in-shard", apply("in-shard", d), reuseCounts{1, 0, 3122, 3130})

	// A node insertion: the receiving shard's node list grows.
	d = g.NewDelta()
	d.AddNode()
	checkCounts(t, "insertion", apply("insertion", d), reuseCounts{1, 0, 0, 6254})

	// Nine insertions put two nodes in shard 0, past its staleness
	// limit of 1: every shard gained a node, and shard 0 re-partitions.
	d = g.NewDelta()
	for range 9 {
		d.AddNode()
	}
	us = apply("re-partition", d)
	if !us.Repartitioned || us.NodesMoved == 0 {
		t.Fatalf("re-partition: repartitioned %v, moved %d nodes", us.Repartitioned, us.NodesMoved)
	}
	checkCounts(t, "re-partition", us, reuseCounts{8, 0, 0, 50034})
}

// sameShardIndex reports whether two block indexes save to the same
// bytes.
func sameShardIndex(a, b *core.Index) error {
	var ba, bb bytes.Buffer
	if err := a.Save(&ba); err != nil {
		return err
	}
	if err := b.Save(&bb); err != nil {
		return err
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		return fmt.Errorf("saved bytes differ")
	}
	return nil
}

// TestDeltaChainDerivesParentBlockA chains random deltas through Apply
// and checks, at every epoch, the A each reusing rebuild compares
// against: the parent block's adjacency re-formed from the parent
// epoch's graph by buildPart's assembly (blockGraph) and the parent
// index's permutation equals, bit for bit, the A a fresh build of the
// parent graph forms — over a block graph assembled independently, edge
// by edge, and that build's own permutation.
func TestDeltaChainDerivesParentBlockA(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sx := buildSharded(t, testutil.PowerLaw(160, 5), 4, 0.95)
	compared := 0
	for epoch := 0; epoch < 8; epoch++ {
		next, _, err := sx.Apply(testutil.RandomDelta(rng, sx.Graph(), 4))
		if err != nil {
			t.Fatal(err)
		}
		fresh := rebuildOracle(t, sx)
		for si, p := range next.parts {
			old := sx.parts[si]
			if p == old || !slices.Equal(p.nodes, old.nodes) {
				continue // shared, or rebuilt without a parent
			}
			sg, _, err := next.blockGraph(sx.Graph(), si)
			if err != nil {
				t.Fatal(err)
			}
			derived := old.ix.Adjacency(sg)
			want := fresh.parts[si].ix.Adjacency(assembleBlock(t, sx, si))
			if !slices.Equal(derived.ColPtr, want.ColPtr) || !slices.Equal(derived.RowIdx, want.RowIdx) || !sameFloatBits(derived.Val, want.Val) {
				t.Fatalf("epoch %d shard %d: the parent block A differs from a fresh build's", epoch, si)
			}
			compared++
		}
		sx = next
	}
	if compared == 0 {
		t.Fatal("no rebuild had a parent block to compare")
	}
}

// TestParentBlockRowsReadInPlace chains random deltas through Apply
// and checks, for every rebuild with a parent block, that the rows the
// rebuild reads in place from the parent epoch's graph (blockRows, what
// core's changed-column compare walks) are the assembled parent block
// graph's, bit for bit: the node count, each row's targets and weights
// in order, and each row's weight sum.
func TestParentBlockRowsReadInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sx := buildSharded(t, testutil.PowerLaw(160, 5), 4, 0.95)
	compared := 0
	type edge struct {
		u int
		w uint64
	}
	row := func(r core.Rows, v int) (es []edge) {
		r.OutNeighbors(v, func(u int, w float64) { es = append(es, edge{u, math.Float64bits(w)}) })
		return es
	}
	for epoch := 0; epoch < 8; epoch++ {
		next, _, err := sx.Apply(testutil.RandomDelta(rng, sx.Graph(), 4))
		if err != nil {
			t.Fatal(err)
		}
		for si, p := range next.parts {
			old := sx.parts[si]
			if p == old || !slices.Equal(p.nodes, old.nodes) {
				continue // shared, or rebuilt without a parent
			}
			want, _, err := next.blockGraph(sx.Graph(), si)
			if err != nil {
				t.Fatal(err)
			}
			got := blockRows{sx: next, si: si, n: old.ix.N(), g: sx.Graph()}
			if got.N() != want.N() || got.N() != old.ix.N() {
				t.Fatalf("epoch %d shard %d: %d rows read in place, the parent block has %d (index %d)", epoch, si, got.N(), want.N(), old.ix.N())
			}
			for v := 0; v < want.N(); v++ {
				if !slices.Equal(row(got, v), row(want, v)) || math.Float64bits(got.OutWeightSum(v)) != math.Float64bits(want.OutWeightSum(v)) {
					t.Fatalf("epoch %d shard %d: row %d read in place differs from the assembled parent block's", epoch, si, v)
				}
			}
			compared++
		}
		sx = next
	}
	if compared == 0 {
		t.Fatal("no rebuild had a parent block to compare")
	}
}

// assembleBlock builds shard si's block graph of sx from sx's graph
// with a graph.Builder: every in-shard edge in local ids, and one edge
// per leaking node to the ghost sink carrying its summed out-of-shard
// weight.
func assembleBlock(t *testing.T, sx *ShardedIndex, si int) *graph.Graph {
	t.Helper()
	g, p := sx.Graph(), sx.parts[si]
	ns := len(p.nodes)
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	sink := false
	for lv, v := range p.nodes {
		leak := 0.0
		g.OutNeighbors(int(v), func(u int, w float64) {
			if sx.HomeShard(u) == si {
				edges = append(edges, edge{lv, int(sx.local[u]), w})
			} else {
				leak += w
			}
		})
		if leak > 0 {
			edges = append(edges, edge{lv, ns, leak})
			sink = true
		}
	}
	n := ns
	if sink {
		n++
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// sameFloatBits reports whether two float slices agree bit for bit.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
