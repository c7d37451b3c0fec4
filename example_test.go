package kdash_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"kdash"
)

// ExampleBuildIndex indexes a small ring-with-chord graph and runs an
// exact top-3 query.
func ExampleBuildIndex() {
	b := kdash.NewBuilder(5)
	for _, e := range []struct {
		from, to int
		w        float64
	}{
		{0, 1, 2}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}, {0, 2, 1},
	} {
		if err := b.AddEdge(e.from, e.to, e.w); err != nil {
			log.Fatal(err)
		}
	}
	ix, err := kdash.BuildIndex(b.Build(), kdash.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := ix.TopK(0, 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%d. node %d (%.4f)\n", i+1, r.Node, r.Score)
	}
	// Output:
	// 1. node 0 (0.9500)
	// 2. node 1 (0.0317)
	// 3. node 2 (0.0174)
}

// ExampleIndex_TopKPersonalized restarts the walk into a weighted seed
// set (Personalized PageRank) and still gets exact answers.
func ExampleIndex_TopKPersonalized() {
	b := kdash.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}, {4, 5}, {5, 4}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	ix, err := kdash.BuildIndex(b.Build(), kdash.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := ix.TopKPersonalized(map[int]float64{0: 3, 2: 1}, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%d. node %d\n", i+1, r.Node)
	}
	// Output:
	// 1. node 0
	// 2. node 2
}

// ExampleShardedIndex_Save round-trips a one-shard index through its
// directory form: Save writes the directory, OpenShardedIndex reads it
// back into sealed read-only memory.
func ExampleShardedIndex_Save() {
	b := kdash.NewBuilder(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	sx, err := kdash.BuildShardedIndex(b.Build(), kdash.ShardOptions{Shards: 1, Reorder: kdash.ReorderHybrid})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "kdash-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxDir := filepath.Join(dir, "idx")
	if err := sx.Save(idxDir); err != nil {
		log.Fatal(err)
	}
	loaded, err := kdash.OpenShardedIndex(idxDir, kdash.OpenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer loaded.Close()
	results, _, err := loaded.TopK(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top node: %d\n", results[0].Node)
	// Output:
	// top node: 0
}

// ExampleOpenShardedIndex round-trips a sharded index through its
// directory form and reopens it lazily: shard files are only opened
// (read, checksummed and sealed) when a query first solves the shard —
// the configuration kdash-worker runs.
func ExampleOpenShardedIndex() {
	b := kdash.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	sx, err := kdash.BuildShardedIndex(b.Build(), kdash.ShardOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "kdash-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxDir := filepath.Join(dir, "idx")
	if err := sx.Save(idxDir); err != nil {
		log.Fatal(err)
	}

	opened, err := kdash.OpenShardedIndex(idxDir, kdash.OpenOptions{Lazy: true})
	if err != nil {
		log.Fatal(err)
	}
	defer opened.Close()
	want, _, err := sx.TopK(0, 2)
	if err != nil {
		log.Fatal(err)
	}
	got, _, err := opened.TopK(0, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bit-identical: %t\n", want[0] == got[0] && want[1] == got[1])
	// Output:
	// bit-identical: true
}

// ExampleShardedIndex_TopKBatch answers a block of queries; answers are
// identical to issuing each query alone.
func ExampleShardedIndex_TopKBatch() {
	b := kdash.NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	sx, err := kdash.BuildShardedIndex(b.Build(), kdash.ShardOptions{Shards: 1, Reorder: kdash.ReorderHybrid})
	if err != nil {
		log.Fatal(err)
	}
	batches, _, err := sx.TopKBatch([]int{0, 2, 4}, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, results := range batches {
		fmt.Printf("query %d -> top node %d\n", i, results[0].Node)
	}
	// Output:
	// query 0 -> top node 0
	// query 1 -> top node 2
	// query 2 -> top node 4
}

// ExampleShardedIndex_Apply applies a graph delta functionally — the
// old epoch stays valid while the successor refactorizes only the
// shards owning changed columns — then round-trips the successor
// through Save and a lazy reopen.
func ExampleShardedIndex_Apply() {
	b := kdash.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	sx, err := kdash.BuildShardedIndex(b.Build(), kdash.ShardOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}

	d := sx.Graph().NewDelta()
	if err := d.AddEdge(1, 2, 2); err != nil { // bridge the components
		log.Fatal(err)
	}
	next, stats, err := sx.Apply(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d, shards rebuilt: %d\n", next.Epoch(), stats.ShardsRebuilt)

	dir, err := os.MkdirTemp("", "kdash-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxDir := filepath.Join(dir, "idx")
	if err := next.Save(idxDir); err != nil {
		log.Fatal(err)
	}
	reloaded, err := kdash.OpenShardedIndex(idxDir, kdash.OpenOptions{Lazy: true})
	if err != nil {
		log.Fatal(err)
	}
	defer reloaded.Close()
	want, _, err := next.TopK(1, 3)
	if err != nil {
		log.Fatal(err)
	}
	got, _, err := reloaded.TopK(1, 3)
	if err != nil {
		log.Fatal(err)
	}
	same := len(want) == len(got)
	for i := range got {
		same = same && want[i] == got[i]
	}
	fmt.Printf("epoch survives reload: %d, answers bit-identical: %t\n", reloaded.Epoch(), same)
	// Output:
	// epoch 1, shards rebuilt: 1
	// epoch survives reload: 1, answers bit-identical: true
}
