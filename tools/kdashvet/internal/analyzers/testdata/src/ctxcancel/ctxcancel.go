// Golden tests for the ctxcancel analyzer: solve loops in //kdash:ctxloop
// functions must consult a context between iterations.
package ctxcancel

import "context"

type shard struct{ id int }

func (s *shard) solve(seed []float64) float64 { return float64(s.id) }

func (s *shard) solveCtx(ctx context.Context, seed []float64) float64 { return float64(s.id) }

//kdash:ctxloop
func uncancellable(shards []*shard, seed []float64) float64 {
	var total float64
	for _, s := range shards { // want `solve loop in //kdash:ctxloop function uncancellable never consults a context`
		total += s.solve(seed)
	}
	return total
}

func (s *shard) topK(q int) float64 { return float64(s.id + q) }

//kdash:ctxloop
func uncancellableBatch(s *shard, qs []int) float64 {
	var total float64
	for _, q := range qs { // want `solve loop in //kdash:ctxloop function uncancellableBatch never consults a context`
		total += s.topK(q)
	}
	return total
}

//kdash:ctxloop
func errChecked(ctx context.Context, shards []*shard, seed []float64) (float64, error) {
	var total float64
	for _, s := range shards {
		if ctx != nil { // ok: nil-guarded Err check consults the context
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += s.solve(seed)
	}
	return total, nil
}

//kdash:ctxloop
func delegated(ctx context.Context, shards []*shard, seed []float64) float64 {
	var total float64
	for _, s := range shards {
		total += s.solveCtx(ctx, seed) // ok: context passed into the per-iteration call
	}
	return total
}

//kdash:ctxloop
func scanOnly(xs []float64) float64 {
	var m float64
	for _, x := range xs { // ok: no solve work in the body
		if x > m {
			m = x
		}
	}
	return m
}

func unannotated(shards []*shard, seed []float64) float64 {
	var total float64
	for _, s := range shards { // ok: no //kdash:ctxloop directive
		total += s.solve(seed)
	}
	return total
}

//kdash:ctxloop
func suppressedBatch(shards []*shard, seed []float64) float64 {
	var total float64
	//kdash:allow(ctxcancel) offline batch tool; cancellation handled by process signal
	for _, s := range shards {
		total += s.solve(seed)
	}
	return total
}
