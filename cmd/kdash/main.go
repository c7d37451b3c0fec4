// Command kdash builds a K-dash index over an edge-list graph and answers
// exact top-k RWR queries from the command line.
//
// Usage:
//
//	kdash -graph edges.tsv -q 42 -k 10 [-c 0.95] [-reorder hybrid] [-verify]
//	kdash -graph edges.tsv -shards 8 -save-index idxdir -q 42
//	kdash -load-index idxdir -q 42
//
// The edge list has one "from to [weight]" triple per line; '#' and '%'
// start comments. The index is a sharded index: with -shards N the graph
// is partitioned into N Louvain-balanced shards whose indexes build
// concurrently, and the default is one shard. -save-index writes it as
// a directory (per-shard files, graph snapshot and manifest) — the form
// kdash-server and kdash-worker serve — and -load-index opens such a
// directory. With -verify the answer is cross-checked against the
// iterative method.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"kdash"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

// verifyTol is how far a score may lie from the iterative method's
// proximity, the bound the benchmark's oracle applies.
const verifyTol = 1e-9

func main() {
	var (
		graphPath = flag.String("graph", "", "path to the edge-list file (required)")
		query     = flag.Int("q", 0, "query node id")
		k         = flag.Int("k", 5, "number of answer nodes")
		c         = flag.Float64("c", kdash.DefaultRestart, "restart probability")
		method    = flag.String("reorder", "hybrid", "node reordering: degree|cluster|hybrid|random|natural")
		seed      = flag.Int64("seed", 1, "seed for Louvain / random ordering")
		shards    = flag.Int("shards", 1, "partition the index into N shards built in parallel")
		workers   = flag.Int("workers", 0, "worker-pool width for the build (0 = all CPUs)")
		verify    = flag.Bool("verify", false, "cross-check the answer against the iterative method")
		saveIdx   = flag.String("save-index", "", "write the built index to this directory")
		loadIdx   = flag.String("load-index", "", "load an index directory written by -save-index")
	)
	flag.Parse()
	if err := negativeCount(count{"shards", *shards}, count{"workers", *workers}); err != nil {
		fmt.Fprintln(os.Stderr, "kdash:", err)
		os.Exit(2)
	}
	if *graphPath == "" && *loadIdx == "" {
		fmt.Fprintln(os.Stderr, "kdash: -graph (or -load-index) is required")
		flag.Usage()
		os.Exit(2)
	}

	var g *kdash.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		var errLoad error
		g, errLoad = kdash.Load(f)
		f.Close()
		if errLoad != nil {
			fatal(errLoad)
		}
		fmt.Printf("graph: %d nodes, %d edges\n", g.N(), g.M())
	}

	var sx *kdash.ShardedIndex
	if *loadIdx != "" {
		if !shard.IsShardedIndexDir(*loadIdx) {
			fatal(fmt.Errorf("-load-index %s is not an index directory; build one with `kdash -graph G -save-index DIR`", *loadIdx))
		}
		start := time.Now()
		var err error
		sx, err = kdash.OpenShardedIndex(*loadIdx, kdash.OpenOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("index: loaded %d nodes / %d shards from %s in %v\n",
			sx.N(), sx.Shards(), *loadIdx, time.Since(start).Round(time.Millisecond))
	} else {
		m, err := reorder.Parse(*method)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		sx, err = kdash.BuildShardedIndex(g, kdash.ShardOptions{
			Shards: *shards, Restart: *c, Reorder: m, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			fatal(err)
		}
		st := sx.Stats()
		fmt.Printf("index: built %d shards in %v (partition %v, shard-cpu %v, cut edges %d = %.1f%% of weight, nnz(inverse)=%d)\n",
			sx.Shards(), time.Since(start).Round(time.Millisecond),
			st.PartitionTime.Round(time.Millisecond), st.ShardCPUTime.Round(time.Millisecond),
			st.CutEdges, 100*st.CutWeightFrac, st.NNZInverse)
	}
	if *saveIdx != "" {
		if err := sx.Save(*saveIdx); err != nil {
			fatal(err)
		}
		fmt.Printf("index: saved to %s/\n", *saveIdx)
	}

	qStart := time.Now()
	results, stats, err := sx.TopK(*query, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query: node %d, K=%d -> %v (solved %d/%d shards in %d solves, pruned %d)\n",
		*query, *k, time.Since(qStart), stats.ShardsSolved, sx.Shards(), stats.Solves, stats.ShardsPruned)
	for i, r := range results {
		fmt.Printf("%3d. node %-8d proximity %.8f\n", i+1, r.Node, r.Score)
	}

	if *verify {
		if g == nil {
			fatal(fmt.Errorf("-verify needs -graph (the iterative oracle runs on the raw graph)"))
		}
		want, err := kdash.IterativeProximities(g, *query, sx.Restart())
		if err != nil {
			fatal(err)
		}
		if err := verifyAnswer(results, want, *k); err != nil {
			fmt.Printf("verify: MISMATCH, %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verify: every score within 1e-9 of the iterative method's top-k")
	}
}

// verifyAnswer checks a top-k answer against the full proximity vector
// the iterative method computed: no node twice, each node's score within
// verifyTol of its own proximity, the i-th score within verifyTol of the
// i-th largest proximity, and fewer than k nodes only when every node
// left out has a proximity within verifyTol of zero. Nodes whose
// proximities tie within the tolerance may come in either order.
func verifyAnswer(got []kdash.Result, want []float64, k int) error {
	ranked := append([]float64(nil), want...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
	if len(got) > k {
		return fmt.Errorf("%d nodes for k=%d", len(got), k)
	}
	if len(got) < k && len(got) < len(ranked) && ranked[len(got)] > verifyTol {
		return fmt.Errorf("%d nodes for k=%d, but the %d-th largest proximity is %.12g", len(got), k, len(got)+1, ranked[len(got)])
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		switch {
		case r.Node < 0 || r.Node >= len(want):
			return fmt.Errorf("rank %d: node %d out of range", i+1, r.Node)
		case seen[r.Node]:
			return fmt.Errorf("rank %d: node %d repeated", i+1, r.Node)
		case math.Abs(r.Score-want[r.Node]) > verifyTol:
			return fmt.Errorf("rank %d: node %d scored %.12g, iterative method says %.12g", i+1, r.Node, r.Score, want[r.Node])
		case math.Abs(r.Score-ranked[i]) > verifyTol:
			return fmt.Errorf("rank %d: score %.12g, the %d-th largest proximity is %.12g", i+1, r.Score, i+1, ranked[i])
		}
		seen[r.Node] = true
	}
	return nil
}

// count is a count flag's name and value.
type count struct {
	flag string
	n    int
}

// negativeCount reports the first negative count: zero keeps each
// count flag's documented meaning, a negative one has none.
func negativeCount(counts ...count) error {
	for _, c := range counts {
		if c.n < 0 {
			return fmt.Errorf("-%s %d: a count cannot be negative", c.flag, c.n)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kdash:", err)
	os.Exit(1)
}
