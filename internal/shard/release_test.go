package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"kdash/internal/graph"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// TestRetiredEpochsReleaseContainers runs an Apply chain over a loaded
// directory, eager and lazy: a shard container must be released once no
// reachable epoch holds it, and an epoch kept alive must keep answering
// bit-identically — its containers still sealed in memory — while its
// predecessors' go. The lazy case, the configuration kdash-worker runs,
// leaves one shard deferred, so its pending open is shared along the
// chain; that open must not keep the loaded epoch, and with it every
// container, reachable.
func TestRetiredEpochsReleaseContainers(t *testing.T) {
	const s = 4
	built, err := Build(testutil.Clustered(240, s, 31), Options{Shards: s, Reorder: reorder.Hybrid, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	var sizes [s]int64
	for si := range sizes {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d.idx", si)))
		if err != nil {
			t.Fatal(err)
		}
		sizes[si] = fi.Size()
	}
	probe, err := mmapio.Open(filepath.Join(dir, "shard-0000.idx"))
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	if !probe.OffHeap() {
		t.Skip("loads stay on the Go heap on this platform")
	}
	for _, tc := range []struct {
		label string
		opt   LoadOptions
	}{
		{"copy", LoadOptions{}},
		{"copy-lazy", LoadOptions{Lazy: true}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			// A use-after-release is a fault: make it a failing panic on
			// this goroutine, where every query below runs, not a crash.
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			collect() // earlier tests' garbage must not release inside this window
			base := mmapio.ReadStats()
			held, oracle := loadChain(t, dir, tc.opt, built)

			// Only epoch 0 held shard 0's container. Nothing has queried
			// the loaded chain yet, so a lazy shard is still deferred.
			awaitReleased(t, base, 1, sizes[0])
			assertSameOnEveryShard(t, oracle[0], held[0], "pinned epoch 1")

			// Shards 1..s-2 were held by epoch 1 (and its dropped
			// successors) alone; epoch s-1 keeps shard s-1's.
			held[0] = nil
			awaitReleased(t, base, s-1, sizes[0]+sizes[1]+sizes[2])
			assertSameOnEveryShard(t, oracle[1], held[1], "last epoch")
		})
	}
}

// loadChain opens dir and applies s-1 updates, the j-th dirtying shard
// j alone, so epoch j has rebuilt shards 0..j-1 on the heap and shares
// the loaded containers of shards j..s-1 with epoch 0. A lazy load opens
// every shard but the last first, leaving that one's open deferred and
// shared along the chain. It returns epochs 1 and s-1 — the others are
// unreachable once it returns — and the same two epochs of the chain
// applied to built, whose answers are the loaded ones bit for bit.
func loadChain(t *testing.T, dir string, opt LoadOptions, built *ShardedIndex) (held, oracle []*ShardedIndex) {
	t.Helper()
	s := built.Shards()
	ep0, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Lazy {
		for si := 0; si < s-1; si++ {
			if err := ep0.parts[si].openIndex(); err != nil {
				t.Fatal(err)
			}
		}
	}
	loaded, built2 := []*ShardedIndex{ep0}, []*ShardedIndex{built}
	for si := 0; si < s-1; si++ {
		d := intraShardEdge(t, built2[si], si)
		next, us, err := loaded[si].Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(us.DirtyShards) != 1 || us.DirtyShards[0] != si {
			t.Fatalf("apply dirtied %v, want [%d]", us.DirtyShards, si)
		}
		onext, _, err := built2[si].Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		loaded, built2 = append(loaded, next), append(built2, onext)
	}
	return []*ShardedIndex{loaded[1], loaded[s-1]}, []*ShardedIndex{built2[1], built2[s-1]}
}

// collect runs enough collections for every dropped index to be found
// unreachable, sync.Pool victim caches included, and gives the cleanup
// goroutine a moment to release what they held.
func collect() {
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// awaitReleased collects until the containers released since base cover
// count containers and bytes bytes, failing after a generous deadline:
// cleanups run asynchronously after the collection that finds their
// owner unreachable.
func awaitReleased(t *testing.T, base mmapio.Stats, count, bytes int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		st := mmapio.ReadStats()
		if st.Released-base.Released >= count && st.ReleasedBytes-base.ReleasedBytes >= bytes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("released %d containers / %d bytes since the load, want at least %d / %d",
				st.Released-base.Released, st.ReleasedBytes-base.ReleasedBytes, count, bytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// intraShardEdge returns a one-edge delta between two nodes of shard si
// that are not yet linked: it dirties shard si alone.
func intraShardEdge(t *testing.T, sx *ShardedIndex, si int) *graph.Delta {
	t.Helper()
	g := sx.Graph()
	nodes := sx.parts[si].nodes
	for _, u := range nodes {
		for _, v := range nodes {
			if u != v && !g.HasEdge(int(u), int(v)) {
				d := g.NewDelta()
				if err := d.AddEdge(int(u), int(v), 1); err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
	}
	t.Fatalf("shard %d is a clique", si)
	return nil
}

// assertSameOnEveryShard is assertSameTopK with one query homed in each
// shard, so that every shard's factors are read.
func assertSameOnEveryShard(t *testing.T, want, got *ShardedIndex, label string) {
	t.Helper()
	for si, p := range want.parts {
		q := int(p.nodes[len(p.nodes)/2])
		a, _, err := want.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := got.TopK(q, 7)
		if err != nil {
			t.Fatalf("%s: TopK: %v", label, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s, shard %d's query: %d vs %d results", label, si, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s, shard %d's query, rank %d: %v vs %v (not bit-identical)", label, si, i, a[i], b[i])
			}
		}
	}
}
