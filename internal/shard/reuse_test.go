package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
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
		u := p.nodes[p.cutRows[len(p.cutRows)/3]]
		v := sx.parts[(si+3)%8].nodes[7]
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
	if err := d.AddEdge(p.nodes[10], p.nodes[20], 1); err != nil {
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
