package shard

// Batched query execution. A batch is a loop: every query runs the
// ordinary single-query push (topK) on a pooled push state, one after
// the other, so each item — results and QueryStats — is bit-identical to
// TopK by construction, in-process and through a RemoteSolver alike. The
// batch adds only up-front validation of every query and a cancellation
// check between queries.

import (
	"context"
	"fmt"

	"kdash/internal/core"
	"kdash/internal/topk"
)

// BatchStats reports the work of one batched execution: each query's
// own stats, in request order.
type BatchStats struct {
	PerQuery []QueryStats
}

// TopKBatch answers top-k for a block of query nodes; item i equals
// TopK(qs[i], k) bit for bit.
func (sx *ShardedIndex) TopKBatch(qs []int, k int) ([][]topk.Result, BatchStats, error) {
	queries := make([]core.BatchQuery, len(qs))
	for i, q := range qs {
		queries[i] = core.BatchQuery{Q: q, K: k}
	}
	return sx.searchBatch(nil, queries)
}

// searchBatch validates every query before any work happens, so a bad
// entry fails the batch without partial execution, then answers them in
// order. A non-nil context is checked between queries (and, inside each
// query, between shard solves).
//
//kdash:ctxloop
func (sx *ShardedIndex) searchBatch(ctx context.Context, queries []core.BatchQuery) ([][]topk.Result, BatchStats, error) {
	for i, bq := range queries {
		if bq.Q < 0 || bq.Q >= sx.n {
			return nil, BatchStats{}, fmt.Errorf("shard: batch query %d: node %d outside [0,%d)", i, bq.Q, sx.n)
		}
		if bq.K <= 0 {
			return nil, BatchStats{}, fmt.Errorf("shard: batch query %d: K must be positive, got %d", i, bq.K)
		}
	}
	results := make([][]topk.Result, len(queries))
	bs := BatchStats{PerQuery: make([]QueryStats, len(queries))}
	for i, bq := range queries {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, bs, fmt.Errorf("shard: batch cancelled after %d of %d queries: %w", i, len(queries), err)
			}
		}
		rs, qs, err := sx.topK(bq.Q, bq.K, core.SearchOptions{Exclude: bq.Exclude, Ctx: ctx})
		if err != nil {
			return nil, bs, err
		}
		results[i], bs.PerQuery[i] = rs, qs
	}
	return results, bs, nil
}

// SearchBatch serves a block of queries through the core.BatchQuery
// surface, mirroring core.Index.SearchBatch.
func (sx *ShardedIndex) SearchBatch(queries []core.BatchQuery) ([][]topk.Result, []core.SearchStats, error) {
	return sx.SearchBatchCtx(nil, queries)
}

// SearchBatchCtx is SearchBatch with cancellation: a cancelled context
// stops the batch before its next query (or shard solve) and returns the
// context's error wrapped with the work done so far.
func (sx *ShardedIndex) SearchBatchCtx(ctx context.Context, queries []core.BatchQuery) ([][]topk.Result, []core.SearchStats, error) {
	results, bs, err := sx.searchBatch(ctx, queries)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]core.SearchStats, len(bs.PerQuery))
	for i, qs := range bs.PerQuery {
		stats[i] = qs.searchStats()
	}
	return results, stats, nil
}
