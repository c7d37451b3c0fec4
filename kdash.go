// Package kdash is a Go implementation of K-dash — fast and exact top-k
// search for Random Walk with Restart proximity — from Fujiwara et al.,
// "Fast and Exact Top-k Search for Random Walk with Restart", PVLDB 5(5),
// 2012, together with the baselines the paper evaluates against (the
// iterative method, NB_LIN/B_LIN, and the Basic Push Algorithm).
//
// # Quick start
//
//	b := kdash.NewBuilder(4)
//	b.AddEdge(0, 1, 1)
//	b.AddEdge(1, 2, 1)
//	b.AddEdge(2, 0, 1)
//	b.AddEdge(2, 3, 1)
//	g := b.Build()
//
//	ix, err := kdash.BuildIndex(g, kdash.Options{})
//	...
//	results, stats, err := ix.TopK(0, 2)
//
// Results carry exact RWR proximities (Theorem 2 of the paper); stats
// report how much of the graph the estimation-based pruning skipped.
//
// Node ids are dense integers 0..n-1; callers keep their own label
// mapping (see examples/dictionary for a labelled corpus).
//
// One engine answers every query: the ShardedIndex (parallel builds,
// exact cross-shard queries, functional dynamic updates, batches). An
// Index is a one-shard ShardedIndex behind the paper's query surface,
// and a one-shard ShardedIndex is also the index the kdash CLI and
// server build, save and load. ShardedIndex.Save writes a directory of
// page-aligned sectioned files that OpenShardedIndex reads into sealed
// read-only memory, every checksum verified and every array
// range-checked before the first query (see OpenOptions).
// The architecture — layer map, immutability and pooling contracts,
// on-disk formats — is documented in docs/ARCHITECTURE.md.
package kdash

import (
	"io"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// Graph is a directed weighted graph with nodes 0..n-1.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Edge is one directed weighted edge.
type Edge = graph.Edge

// Result is one ranked answer: a node and its exact RWR proximity.
type Result = topk.Result

// Index is a prebuilt K-dash index over a whole graph, safe for
// concurrent queries: a one-shard ShardedIndex behind the
// query surface of the paper's evaluation.
type Index struct {
	sx    *ShardedIndex
	stats BuildStats
}

// Options configures BuildIndex. The zero value selects the paper's
// restart probability c = 0.95 and degree ordering; DefaultOptions
// selects hybrid reordering, the paper's best.
type Options struct {
	// Restart is the restart probability c (zero = 0.95).
	Restart float64
	// Reorder is the node ordering that keeps the inverse factors
	// sparse.
	Reorder ReorderMethod
	// Seed drives Louvain and the Random ordering.
	Seed int64
	// Workers bounds the goroutines inverting the factors (0 = all
	// CPUs).
	Workers int
}

// SearchOptions exposes the evaluation knobs (pruning off, random root)
// used by the paper's ablation figures.
type SearchOptions = core.SearchOptions

// ShardBatchStats reports the work of one ShardedIndex.TopKBatch: each
// query's own per-query stats, in request order — the same values
// ShardedIndex.TopK reports for that query. A batch validates every
// query up front and then runs the ordinary single-query search per
// query, so each item is bit-identical to the same query issued alone.
type ShardBatchStats = shard.BatchStats

// SearchStats reports per-query work. ProximityComputations counts the
// query's exact proximity computations (U^{-1} row dots), Figures 7 and
// 9's measure; Visited reports the same count, and Terminated whether
// the push left a shard unsolved — never on Index's one shard. See
// core.SearchStats.
type SearchStats = core.SearchStats

// BuildStats reports precompute cost and inverse-factor sparsity.
type BuildStats = core.BuildStats

// ReorderMethod selects the node ordering used to keep the precomputed
// inverse factors sparse.
type ReorderMethod = reorder.Method

// Reordering strategies (paper Section 4.2.2 / Algorithms 1-3).
const (
	ReorderDegree  = reorder.Degree
	ReorderCluster = reorder.Cluster
	ReorderHybrid  = reorder.Hybrid
	ReorderRandom  = reorder.Random
	ReorderNatural = reorder.Natural
)

// DefaultRestart is the paper's restart probability c = 0.95.
const DefaultRestart = rwr.DefaultRestart

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// DefaultOptions returns the paper's recommended configuration: c = 0.95
// with hybrid reordering.
func DefaultOptions() Options {
	return Options{Restart: DefaultRestart, Reorder: ReorderHybrid}
}

// BuildIndex precomputes a K-dash index: it reorders the nodes,
// LU-factorizes W = I - (1-c)A, and inverts the triangular factors into
// the sparse form queries use. Precomputation is the expensive step;
// queries afterwards are near-instant.
func BuildIndex(g *Graph, opt Options) (*Index, error) {
	sx, err := shard.Build(g, shard.Options{Shards: 1, Restart: opt.Restart, Reorder: opt.Reorder, Seed: opt.Seed, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	st, err := sx.PartStats(0)
	if err != nil {
		return nil, err
	}
	return &Index{sx: sx, stats: st}, nil
}

// N reports the number of indexed nodes.
func (ix *Index) N() int { return ix.sx.N() }

// Restart reports the restart probability c the index was built with.
func (ix *Index) Restart() float64 { return ix.sx.Restart() }

// Stats reports precomputation statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// TopK returns the K nodes with the highest RWR proximity w.r.t. query
// node q, exactly (Theorem 2), sorted by descending proximity. If fewer
// than K nodes are reachable from q, only the reachable ones are
// returned: every other node has proximity exactly zero.
func (ix *Index) TopK(q, k int) ([]Result, SearchStats, error) {
	return ix.sx.Search(q, SearchOptions{K: k})
}

// Search runs a query with full control over the search (see
// SearchOptions).
func (ix *Index) Search(q int, opt SearchOptions) ([]Result, SearchStats, error) {
	return ix.sx.Search(q, opt)
}

// TopKPersonalized generalises TopK to a restart distribution
// (Personalized PageRank): the walk restarts into the seed nodes with
// probability proportional to their weights. Results are exact.
func (ix *Index) TopKPersonalized(seeds map[int]float64, k int) ([]Result, SearchStats, error) {
	return ix.sx.TopKPersonalized(seeds, k)
}

// Load parses a whitespace-separated edge list ("from to [weight]" per
// line, '#'/'%' comments allowed) into a Graph.
func Load(r io.Reader) (*Graph, error) {
	return graph.ParseEdgeList(r, 0)
}

// OpenOptions configures OpenShardedIndex, the one load path. Every
// file of the index directory is read into memory outside the Go heap
// and sealed read-only (the Go heap where the platform cannot map
// memory), with every checksum verified and every array range-checked
// before it serves; writes through a loaded index's arrays fault. That
// memory is released when the index becomes unreachable, or at once by
// Close.
type OpenOptions struct {
	// Lazy defers each shard file's open to the first query that
	// actually solves the shard, and the graph snapshot's to the first
	// query that ranks, so a cold start touches only the manifest, the
	// partition and what live traffic reaches.
	Lazy bool
}

// OpenShardedIndex opens a saved sharded index directory, eagerly or
// lazily (opt.Lazy); see OpenOptions. Shard memory held off the Go heap
// is released once no epoch using it is reachable;
// ShardedIndex.Close releases it at once.
func OpenShardedIndex(dir string, opt OpenOptions) (*ShardedIndex, error) {
	return shard.Open(dir, shard.LoadOptions{Lazy: opt.Lazy})
}

// ShardedIndex is a partitioned K-dash index: the graph is split into
// balanced Louvain communities, one K-dash index is built per partition
// (concurrently), and queries merge per-shard answers into one exact
// ranking. Build cost parallelises near-linearly with the shard count.
// Answers are exact at every shard count, but their last bits depend
// on it: a shard's graph carries a ghost sink and its own block
// ordering, so scores at two shard counts agree within ~2e-15 and nodes
// whose scores tie to that precision may rank in another order.
type ShardedIndex = shard.ShardedIndex

// ShardOptions configures sharded index construction.
type ShardOptions = shard.Options

// ShardStats reports partition-parallel build cost.
type ShardStats = shard.BuildStats

// BuildShardedIndex partitions the graph and builds one K-dash index per
// partition across a worker pool.
func BuildShardedIndex(g *Graph, opt ShardOptions) (*ShardedIndex, error) {
	return shard.Build(g, opt)
}

// Delta is an ordered batch of graph mutations (edge additions and
// removals, node insertions) built against a specific graph. Apply it
// functionally: Graph.Apply returns a new Graph, and ShardedIndex.Apply
// a new ShardedIndex that refactorizes only the shards owning changed
// columns. The
// originals stay valid, so in-flight queries never observe a
// half-applied update — swap the pointer when the successor is ready.
type Delta = graph.Delta

// UpdateStats reports the work one incremental ShardedIndex.Apply
// performed (shards refactorized, cuts patched, repartitioning).
type UpdateStats = shard.UpdateStats

// NewDelta starts an empty mutation batch against a graph with n
// nodes (usually g.NewDelta() instead).
func NewDelta(n int) *Delta { return graph.NewDelta(n) }

// ErrEdgeNotFound reports removal of an edge that does not exist; test
// with errors.Is against Apply failures.
var ErrEdgeNotFound = graph.ErrEdgeNotFound

// IterativeTopK computes the exact top-k answer with the classical
// power-iteration method (the paper's Equation (1)). It is the oracle
// K-dash is validated against: the same answer, and usually far slower —
// but not on a hub-heavy graph, where no partition keeps the factors
// sparse: on a 10k-node directed scale-free graph it answers in 3.3 ms,
// 3.7x faster than the best sharded layout.
func IterativeTopK(g *Graph, q, k int, c float64) ([]Result, error) {
	if c == 0 {
		c = DefaultRestart
	}
	return rwr.TopK(g.ColumnNormalized(), q, k, c)
}

// IterativeProximities computes the full exact proximity vector for q by
// power iteration.
func IterativeProximities(g *Graph, q int, c float64) ([]float64, error) {
	if c == 0 {
		c = DefaultRestart
	}
	p, _, err := rwr.Iterative(g.ColumnNormalized(), q, c, rwr.DefaultTol, rwr.DefaultMaxIter)
	return p, err
}
