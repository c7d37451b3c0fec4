package kdash

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 6). Each benchmark drives the same implementation
// as cmd/kdash-bench (internal/experiments) so `go test -bench .` and the
// CLI report the same quantities. `kdash-bench -exp all` prints the
// tables; README's "Benchmarks" section says how to run them.
//
// The per-figure query benchmarks (2-4, 7, 9) use prebuilt one-shard
// indexes, the index the experiments, CLI and server query, and time the
// query path; the precompute benchmarks (5-6) time index construction
// per reordering method.

import (
	"fmt"
	"testing"
	"time"

	"kdash/internal/blin"
	"kdash/internal/bpa"
	"kdash/internal/core"
	"kdash/internal/dataset"
	"kdash/internal/experiments"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/louvain"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

// benchDatasets caches dataset construction across benchmarks.
var benchDatasets = map[string]*dataset.Dataset{}

func benchDataset(b *testing.B, name string) *dataset.Dataset {
	b.Helper()
	if d, ok := benchDatasets[name]; ok {
		return d
	}
	d, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	benchDatasets[name] = d
	return d
}

// oneShard builds the one-shard index the paper's benchmarks query.
func oneShard(b *testing.B, g *graph.Graph, m reorder.Method, workers int) *shard.ShardedIndex {
	b.Helper()
	sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: m, Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return sx
}

// benchIndexes caches hybrid K-dash indexes across benchmarks.
var benchIndexes = map[string]*shard.ShardedIndex{}

func benchIndex(b *testing.B, name string) *shard.ShardedIndex {
	b.Helper()
	if ix, ok := benchIndexes[name]; ok {
		return ix
	}
	ix := oneShard(b, benchDataset(b, name).Graph, reorder.Hybrid, 0)
	benchIndexes[name] = ix
	return ix
}

// ---------------------------------------------------------------------
// Figure 2: query time of K-dash(K), NB_LIN(rank), BPA(K) per dataset.
// ---------------------------------------------------------------------

func BenchmarkFigure2KDash(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, k := range []int{5, 25, 50} {
			b.Run(fmt.Sprintf("%s/K=%d", name, k), func(b *testing.B) {
				ix := benchIndex(b, name)
				n := ix.N()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.TopK(i%n, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFigure2NBLin(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, rank := range []int{10, 100} {
			b.Run(fmt.Sprintf("%s/rank=%d", name, rank), func(b *testing.B) {
				d := benchDataset(b, name)
				nb, err := blin.NewNBLin(d.Graph, blin.Options{Rank: rank, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				n := d.Graph.N()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := nb.TopK(i%n, 5); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFigure2BPA(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, k := range []int{5, 25, 50} {
			b.Run(fmt.Sprintf("%s/K=%d", name, k), func(b *testing.B) {
				d := benchDataset(b, name)
				ix, err := bpa.New(d.Graph, bpa.Options{Hubs: 100})
				if err != nil {
					b.Fatal(err)
				}
				n := d.Graph.N()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.TopK(i%n, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figures 3 & 4: precision/time sweep on Dictionary. The precision side
// is not a timing, so the benchmark reports it as a custom metric and
// times the swept query path.
// ---------------------------------------------------------------------

func BenchmarkFigure3and4Sweep(b *testing.B) {
	for _, param := range []int{10, 40, 70, 100} {
		b.Run(fmt.Sprintf("param=%d", param), func(b *testing.B) {
			var last experiments.SweepRow
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure3and4(experiments.Config{
					Queries: 5, Seed: 1,
					Datasets: []*dataset.Dataset{benchDataset(b, "Dictionary")},
					Ranks:    []int{param}, Hubs: []int{param},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			b.ReportMetric(last.PrecisionNBLin, "precision-nblin")
			b.ReportMetric(last.PrecisionBPA, "precision-bpa")
			b.ReportMetric(last.PrecisionKDash, "precision-kdash")
			b.ReportMetric(float64(last.TimeNBLin.Nanoseconds()), "ns-nblin")
			b.ReportMetric(float64(last.TimeBPA.Nanoseconds()), "ns-bpa")
			b.ReportMetric(float64(last.TimeKDash.Nanoseconds()), "ns-kdash")
		})
	}
}

// ---------------------------------------------------------------------
// Figures 5 & 6: precompute time (timed) and inverse-factor sparsity
// (reported metric) per reordering method.
// ---------------------------------------------------------------------

func BenchmarkFigure5and6Precompute(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, m := range reorder.Methods {
			b.Run(fmt.Sprintf("%s/%s", name, m), func(b *testing.B) {
				d := benchDataset(b, name)
				var nnz int
				for i := 0; i < b.N; i++ {
					nnz = oneShard(b, d.Graph, m, 0).Stats().NNZInverse
				}
				b.ReportMetric(float64(nnz)/float64(d.Graph.M()), "nnz/m")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 7: query time with vs. without tree-estimation pruning.
// ---------------------------------------------------------------------

func BenchmarkFigure7Pruning(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, mode := range []string{"with", "without"} {
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				ix := benchIndex(b, name)
				opt := core.SearchOptions{K: 5, DisablePruning: mode == "without"}
				n := ix.N()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ix.Search(i%n, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 9: proximity computations, query-rooted vs random-rooted tree.
// ---------------------------------------------------------------------

func BenchmarkFigure9RootSelection(b *testing.B) {
	for _, name := range dataset.Names() {
		for _, mode := range []string{"query-root", "random-root"} {
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				ix := benchIndex(b, name)
				n := ix.N()
				var comps float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt := core.SearchOptions{K: 5, RandomRoot: mode == "random-root", RootSeed: int64(i)}
					_, st, err := ix.Search(i%n, opt)
					if err != nil {
						b.Fatal(err)
					}
					comps += float64(st.ProximityComputations)
				}
				b.ReportMetric(comps/float64(b.N), "proximity-computations")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Table 2: case study throughput (the table itself is generated by
// cmd/kdash-bench -exp table2).
// ---------------------------------------------------------------------

func BenchmarkTable2CaseStudy(b *testing.B) {
	d := benchDataset(b, "Dictionary")
	ix := benchIndex(b, "Dictionary")
	terms := dataset.CaseStudyTerms()
	qs := make([]int, len(terms))
	for i, term := range terms {
		q, err := d.NodeByLabel(term)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.TopK(qs[i%len(qs)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks for the design choices docs/ARCHITECTURE.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationProximityVector times the factor-based full proximity
// vector against the iterative method, the "exact but slow vs exact and
// fast" substrate comparison behind Equation (3).
func BenchmarkAblationProximityVector(b *testing.B) {
	d := benchDataset(b, "Internet")
	b.Run("factors", func(b *testing.B) {
		ix := benchIndex(b, "Internet")
		for i := 0; i < b.N; i++ {
			if _, err := ix.ProximityVector(i % ix.N()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := IterativeProximities(d.Graph, i%d.Graph.N(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Sharded-index benchmarks: partition-parallel build and cross-shard
// query cost at 1, 4 and 8 shards on a 50k-node clusterable power-law
// graph (the acceptance scale for the shard subsystem). The 1-shard
// build is the whole-graph baseline and dominates the suite's runtime:
// its inverse factors carry ~12x the nonzeros of the 8-shard build.
// ---------------------------------------------------------------------

// benchShardGraph caches the 50k-node graph across the shard benchmarks.
var benchShardGraph *graph.Graph

func shardBenchGraph() *graph.Graph {
	if benchShardGraph == nil {
		benchShardGraph = gen.CommunityOverlay(50000, 3, 512, 0.995, 1)
	}
	return benchShardGraph
}

func BenchmarkShardedBuild(b *testing.B) {
	g := shardBenchGraph()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var nnz int
			for i := 0; i < b.N; i++ {
				sx, err := shard.Build(g, shard.Options{Shards: shards, Reorder: reorder.Hybrid, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				nnz = sx.Stats().NNZInverse
			}
			b.ReportMetric(float64(nnz), "nnz-inverse")
		})
	}
}

// benchShardedIndexes caches built indexes per shard count: the body of
// a sub-benchmark re-runs while b.N calibrates, and the 1-shard build
// alone costs ~25s.
var benchShardedIndexes = map[int]*shard.ShardedIndex{}

func benchShardedIndex(b *testing.B, shards int) *shard.ShardedIndex {
	sx, ok := benchShardedIndexes[shards]
	if !ok {
		var err error
		sx, err = shard.Build(shardBenchGraph(), shard.Options{Shards: shards, Reorder: reorder.Hybrid, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchShardedIndexes[shards] = sx
	}
	return sx
}

func BenchmarkShardedTopK(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sx := benchShardedIndex(b, shards)
			n := sx.N()
			solved := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := sx.TopK((i*997)%n, 10)
				if err != nil {
					b.Fatal(err)
				}
				solved += st.ShardsSolved
			}
			b.ReportMetric(float64(solved)/float64(b.N), "shards-solved")
		})
	}
}

// BenchmarkShardedApplyTwoEdge times the incremental update the WAL
// compactor runs — ShardedIndex.Apply of a two-edge delta on the 8-shard
// 50k index — alternately adding and removing the same two absent edges,
// so every iteration refactorizes the same one or two shards. The extra
// metrics split the apply by stage (UpdateStats): graph is wall time,
// the build stages are summed over the rebuilt shards, and the column
// counts are the rebuilt blocks' inverse columns copied from the
// previous epoch and solved.
func BenchmarkShardedApplyTwoEdge(b *testing.B) {
	g := shardBenchGraph()
	sx := benchShardedIndex(b, 8)
	edges := [][2]int{{101, 40007}, {25013, 333}}
	for _, e := range edges {
		if g.HasEdge(e[0], e[1]) {
			b.Fatalf("edge %v exists in the bench graph: pick another", e)
		}
	}
	var graphT, reorderT, factorizeT, invertT time.Duration
	rebuilt, reused, solved := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.NewDelta(sx.N())
		for _, e := range edges {
			var err error
			if i%2 == 0 {
				err = d.AddEdge(e[0], e[1], 1)
			} else {
				err = d.RemoveEdge(e[0], e[1])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		next, us, err := sx.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		sx = next
		graphT += us.GraphTime
		reorderT += us.ReorderTime
		factorizeT += us.FactorizeTime
		invertT += us.InvertTime
		rebuilt += us.ShardsRebuilt
		reused += us.ColumnsReused
		solved += us.ColumnsSolved
	}
	perApplyMS := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perApplyMS(graphT), "graph-ms")
	b.ReportMetric(perApplyMS(reorderT), "reorder-ms")
	b.ReportMetric(perApplyMS(factorizeT), "factorize-ms")
	b.ReportMetric(perApplyMS(invertT), "invert-ms")
	b.ReportMetric(float64(rebuilt)/float64(b.N), "shards-rebuilt")
	b.ReportMetric(float64(reused)/float64(b.N), "columns-reused")
	b.ReportMetric(float64(solved)/float64(b.N), "columns-solved")
}

// BenchmarkLouvainPartition times community detection on the 50k bench
// graph: the partitioner every sharded Build starts with, and (on shard-
// sized graphs) the first stage of every block refactorization.
func BenchmarkLouvainPartition(b *testing.B) {
	g := shardBenchGraph()
	var res *louvain.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = louvain.Partition(g, 1)
	}
	b.ReportMetric(float64(res.K), "communities")
	b.ReportMetric(res.Q, "modularity")
}

// BenchmarkBatchTopK measures TopKBatch on the 50k bench graph (8
// shards); ns/op counts one full set of <batch> queries. A batch is a
// loop over the single-query push, so the row guards batch = N x single:
// time N times one TopK (BenchmarkShardedTopK's shape) and 2 allocs per
// query — the heap and the result slice — plus the batch's own query,
// result and stats slices.
func BenchmarkBatchTopK(b *testing.B) {
	sx := benchShardedIndex(b, 8)
	const k = 10
	for _, batch := range []int{8, 64} {
		qs := make([]int, batch)
		for i := range qs {
			qs[i] = (i * 997) % sx.N()
		}
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sx.TopKBatch(qs, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelInvert times serial vs parallel triangular
// inversion (an implementation extension; results must be identical).
func BenchmarkAblationParallelInvert(b *testing.B) {
	d := benchDataset(b, "Citation")
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oneShard(b, d.Graph, reorder.Hybrid, workers)
			}
		})
	}
}
