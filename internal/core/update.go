package core

// Dynamic updates, monolithic path. A monolithic index has no block
// structure to confine an update to — every inverse-factor column can
// depend on every edge — so its delta path is a full rebuild from the
// retained source graph with the batch applied. That is exactly the
// cost baseline the sharded incremental path (shard.ShardedIndex.Apply)
// is measured against, and both keep the same functional contract: the
// receiver is never modified, the successor is a fresh immutable index,
// and in-flight queries on the old epoch stay valid.

import (
	"errors"
	"fmt"

	"kdash/internal/graph"
)

// ErrNotUpdatable reports a Rebuild against an index that has no
// source-graph snapshot to replay updates onto (it was loaded from a
// serialised form that does not carry one).
var ErrNotUpdatable = errors.New("index has no graph snapshot")

// ErrUnavailable reports a query abandoned because index data it needs
// could not be read — a lazily opened shard file or graph snapshot that
// failed to load mid-query. No partial answer is returned; servers map
// it to 503 + Retry-After.
var ErrUnavailable = errors.New("index data unavailable")

// Graph returns the source graph the index was built from, or nil for
// an index loaded from its serialised form (which carries only the
// query structures). A nil graph means Rebuild is unavailable.
func (ix *Index) Graph() *graph.Graph { return ix.srcGraph }

// ReleaseGraph drops the retained source graph, making the index
// non-updatable (Rebuild fails with ErrNotUpdatable) but freeing the
// graph's memory. Callers that embed per-block indexes inside a larger
// structure carrying its own snapshot — internal/shard rebuilds dirty
// blocks from the partition-level graph, never from a block's own —
// release the per-block copies.
func (ix *Index) ReleaseGraph() { ix.srcGraph = nil }

// Epoch reports how many delta rebuilds produced this index: 0 for a
// fresh build, incrementing along each Rebuild chain.
func (ix *Index) Epoch() int { return ix.epoch }

// Rebuild produces a new index over the retained graph with the batch
// applied, using the original build options (same restart probability,
// reordering and seed, so an empty batch reproduces the index
// bit-identically). The receiver is untouched and stays fully usable;
// this is the monolithic counterpart of the sharded incremental Apply,
// paying the full precompute cost on every call.
func (ix *Index) Rebuild(batch *graph.Delta) (*Index, error) {
	if ix.srcGraph == nil {
		return nil, fmt.Errorf("core: %w; rebuild from the original edge list instead", ErrNotUpdatable)
	}
	g2, err := ix.srcGraph.Apply(batch)
	if err != nil {
		return nil, err
	}
	ix2, err := BuildIndex(g2, ix.opts)
	if err != nil {
		return nil, err
	}
	ix2.epoch = ix.epoch + 1
	return ix2, nil
}
