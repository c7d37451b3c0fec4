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
// Beyond the monolithic Index the package exposes the partitioned
// ShardedIndex (parallel builds, exact cross-shard queries, functional
// dynamic updates) and file-backed persistence for both: Save writes a
// page-aligned sectioned layout that OpenIndex / OpenShardedIndex can
// memory-map read-only for near-instant cold starts (see OpenOptions).
// The architecture — layer map, immutability and pooling contracts,
// on-disk formats — is documented in docs/ARCHITECTURE.md.
package kdash

import (
	"io"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/mmapio"
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

// Index is a prebuilt K-dash search structure, safe for concurrent
// queries.
type Index = core.Index

// Options configures index construction. The zero value selects the
// paper's defaults: restart probability c = 0.95 and (via DefaultOptions)
// hybrid reordering.
type Options = core.BuildOptions

// SearchOptions exposes the evaluation knobs (pruning off, random root)
// used by the paper's ablation figures.
type SearchOptions = core.SearchOptions

// BatchQuery is one query of a batched execution. Both index shapes
// answer blocks of queries through SearchBatch/TopKBatch by validating
// every query up front and then running the ordinary single-query search
// per query on pooled workspaces, so each item is bit-identical to the
// same query issued alone.
type BatchQuery = core.BatchQuery

// ShardBatchStats reports the work of one batched sharded execution:
// each query's own per-query stats, in request order — the same values
// ShardedIndex.TopK reports for that query.
type ShardBatchStats = shard.BatchStats

// SearchStats reports per-query work: nodes visited, exact proximity
// computations, and whether pruning terminated the search early.
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
	return core.BuildIndex(g, opt)
}

// Load parses a whitespace-separated edge list ("from to [weight]" per
// line, '#'/'%' comments allowed) into a Graph.
func Load(r io.Reader) (*Graph, error) {
	return graph.ParseEdgeList(r, 0)
}

// LoadIndex reads an index previously written with Index.Save.
// Precomputation is the expensive step of K-dash, so production
// deployments build the index once and ship the serialised form to query
// servers. Reading from a stream always materialises the index in
// private memory; use OpenIndex to memory-map an index file instead.
func LoadIndex(r io.Reader) (*Index, error) {
	return core.LoadIndex(r)
}

// OpenOptions configures OpenIndex and OpenShardedIndex, the
// file-backed load paths.
type OpenOptions struct {
	// Mmap memory-maps saved index files read-only instead of copying
	// them into private memory: opening costs milliseconds
	// regardless of index size, pages fault in on first use, and the
	// physical memory is shared across processes serving the same
	// files. Writes through a mapped index's arrays are impossible (the
	// mapping is read-only at the MMU level). The mapping is released
	// when the index becomes unreachable, or at once by Close. On
	// platforms without mmap support opening silently falls back to the
	// private-copy path; Index.Mapped reports which one was taken.
	Mmap bool
	// Lazy, for sharded indexes, defers each shard file's open to the
	// first query that actually solves the shard, so a cold start
	// touches only the manifest and the shards live traffic reaches.
	// Combined with Mmap this is the instant-cold-start configuration:
	// open time is O(shards touched), resident memory O(bytes queried).
	Lazy bool
}

// mode maps the public knob onto the internal backing mode.
func (o OpenOptions) mode() mmapio.Mode {
	if o.Mmap {
		return mmapio.ModeAuto
	}
	return mmapio.ModeCopy
}

// OpenIndex opens a saved monolithic index directly from a file,
// memory-mapping it when opt.Mmap is set (see OpenOptions).
func OpenIndex(path string, opt OpenOptions) (*Index, error) {
	return core.OpenIndexFile(path, opt.mode())
}

// OpenShardedIndex opens a saved sharded index directory with explicit
// backing (opt.Mmap) and laziness (opt.Lazy) choices; see OpenOptions.
// Shard memory held off the Go heap is released once no epoch using it
// is reachable; ShardedIndex.Close releases it at once.
func OpenShardedIndex(dir string, opt OpenOptions) (*ShardedIndex, error) {
	return shard.Open(dir, shard.LoadOptions{Mode: opt.mode(), Lazy: opt.Lazy})
}

// ShardedIndex is a partitioned K-dash index: the graph is split into
// balanced Louvain communities, one K-dash index is built per partition
// (concurrently), and queries merge per-shard answers into one exact
// ranking. Build cost parallelises near-linearly with the shard count;
// answers match the monolithic Index.
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

// LoadShardedIndex reads a sharded index previously written with
// ShardedIndex.Save (a directory of per-shard index files plus a
// manifest).
func LoadShardedIndex(dir string) (*ShardedIndex, error) {
	return shard.Load(dir)
}

// IsShardedIndexDir reports whether path holds a saved sharded index —
// the dispatch CLIs use to pick LoadShardedIndex over LoadIndex.
func IsShardedIndexDir(path string) bool {
	return shard.IsShardedIndexDir(path)
}

// Delta is an ordered batch of graph mutations (edge additions and
// removals, node insertions) built against a specific graph. Apply it
// functionally: Graph.Apply returns a new Graph, Index.Rebuild a new
// Index (full precompute), and ShardedIndex.Apply a new ShardedIndex
// that refactorizes only the shards owning changed columns. The
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
// with errors.Is against Apply/Rebuild failures.
var ErrEdgeNotFound = graph.ErrEdgeNotFound

// IterativeTopK computes the exact top-k answer with the classical
// power-iteration method (the paper's Equation (1)). It is the oracle
// K-dash is validated against — far slower, same answer.
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
