package shard

// Batched query execution. A batch is a loop: every query runs the
// ordinary single-query push (TopK) on a pooled push state, one after
// the other, so each item — results and QueryStats — is bit-identical to
// TopK by construction, in-process and through a RemoteSolver alike. The
// batch adds only up-front validation of every query.

import (
	"fmt"

	"kdash/internal/topk"
)

// BatchStats reports the work of one batched execution: each query's
// own stats, in request order.
type BatchStats struct {
	PerQuery []QueryStats
}

// TopKBatch answers top-k for a block of query nodes; item i equals
// TopK(qs[i], k) bit for bit. Every query is validated before any work
// happens, so a bad entry fails the batch without partial execution.
func (sx *ShardedIndex) TopKBatch(qs []int, k int) ([][]topk.Result, BatchStats, error) {
	for i, q := range qs {
		if q < 0 || q >= sx.n {
			return nil, BatchStats{}, fmt.Errorf("shard: batch query %d: node %d outside [0,%d)", i, q, sx.n)
		}
		if k <= 0 {
			return nil, BatchStats{}, fmt.Errorf("shard: batch query %d: K must be positive, got %d", i, k)
		}
	}
	results := make([][]topk.Result, len(qs))
	bs := BatchStats{PerQuery: make([]QueryStats, len(qs))}
	for i, q := range qs {
		rs, st, err := sx.TopK(q, k)
		if err != nil {
			return nil, bs, err
		}
		results[i], bs.PerQuery[i] = rs, st
	}
	return results, bs, nil
}
