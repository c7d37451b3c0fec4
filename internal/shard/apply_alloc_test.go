package shard

import (
	"encoding/binary"
	"runtime"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
)

// TestApplyAllocatesWhatItKeeps budgets a two-edge Apply on a mid-size
// sharded index: it may allocate at most twice the bytes its successor
// keeps (the rebuilt blocks, the graph snapshot and its search tables).
// The WAL compactor collects right before every apply, so no GC runs
// inside one and an update server's peak RSS is its pre-apply heap plus
// everything the apply allocates; a graph stage that re-derives O(m)
// copies, or factors grown by append, breaks the budget.
func TestApplyAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := gen.CommunityOverlay(16000, 3, 160, 0.995, 5)
	sx, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two absent cut-crossing edges with sources in shards 0 and 2: the
	// bench's update shape, rebuilding two blocks in parallel.
	var edges [][2]int
	for _, si := range []int{0, 2} {
		u := int(sx.parts[si].nodes[len(sx.parts[si].nodes)/2])
		for _, v := range sx.parts[si+1].nodes {
			if !g.HasEdge(u, int(v)) {
				edges = append(edges, [2]int{u, int(v)})
				break
			}
		}
	}
	apply := func(remove bool) (*ShardedIndex, UpdateStats) {
		t.Helper()
		d := graph.NewDelta(sx.N())
		for _, e := range edges {
			var err error
			if remove {
				err = d.RemoveEdge(e[0], e[1])
			} else {
				err = d.AddEdge(e[0], e[1], 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		next, us, err := sx.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		return next, us
	}
	// Warm up: the budgeted apply rebuilds blocks whose previous epoch
	// was itself rebuilt by an apply.
	sx, _ = apply(false)
	sx, _ = apply(true)

	var before, applied, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	next, us := apply(false)
	runtime.ReadMemStats(&applied)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(sx)
	runtime.KeepAlive(next)

	if us.ShardsRebuilt != 2 {
		t.Fatalf("rebuilt %d shards, want 2", us.ShardsRebuilt)
	}
	alloc := int64(applied.TotalAlloc - before.TotalAlloc)
	keep := int64(kept.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("apply allocated %.2f MB, successor keeps %.2f MB (%.2fx)", float64(alloc)/1e6, float64(keep)/1e6, float64(alloc)/float64(keep))
	if keep <= 0 || alloc > 2*keep {
		t.Fatalf("a two-edge apply allocated %d bytes for a successor that keeps %d: over twice what it keeps", alloc, keep)
	}
}

// TestApplyCapsTheStoredFactorCount: a rebuild sizes its factors from
// the previous block's NNZFactors, which a loaded shard file stores
// unchecked. A consistently resealed file claiming 2^50 factor entries
// must still update — the hint is capped by the block's real inverse —
// and the rebuilt block must be a fresh build's, bit for bit.
func TestApplyCapsTheStoredFactorCount(t *testing.T) {
	sx := damageIndex(t)
	dir := damageDir(t, sx)
	editFile(t, dir, "shard-0000.idx", func(b []byte) []byte {
		return resealed(t, b, 1, func(meta []byte) { binary.LittleEndian.PutUint64(meta[32:], 1<<50) })
	})
	loaded, err := Open(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.parts[0].tryIndex().Stats().NNZFactors; got != 1<<50 {
		t.Fatalf("the edit did not reach the stat: NNZFactors %d", got)
	}
	nodes := loaded.parts[0].nodes
	d := loaded.Graph().NewDelta()
	for _, v := range nodes[1:] {
		if !loaded.Graph().HasEdge(int(nodes[0]), int(v)) {
			if err := d.AddEdge(int(nodes[0]), int(v), 1); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	next, us, err := loaded.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(us.DirtyShards) != 1 || us.DirtyShards[0] != 0 {
		t.Fatalf("dirty shards %v, want [0]", us.DirtyShards)
	}
	want, err := Build(next.Graph(), Options{Reorder: reorder.Hybrid, Seed: 1, Assignment: next.Assignment()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShardIndex(next.parts[0].ix, want.parts[0].ix); err != nil {
		t.Fatalf("shard 0 differs from a fresh build: %v", err)
	}
}
