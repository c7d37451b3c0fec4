package obs

// Per-query tracing. A QueryTrace is threaded (by pointer, opt-in)
// from the HTTP layer through the solver seams: the sharded push
// records one SolveStep per shard solve plus the residual-bound
// trajectory and phase timings. A nil
// trace pointer is the fast path everywhere — recording code is gated
// on it, so disabled queries pay one predictable branch and zero
// allocations.

// SolveStep is one shard solve inside a traced query, in execution
// order.
type SolveStep struct {
	// Shard is the solved shard.
	Shard int `json:"shard"`
	// ResidualBefore is the total pending residual mass across all
	// shards when this solve was scheduled.
	ResidualBefore float64 `json:"residualBefore"`
	// MassConsumed is the residual mass this solve absorbed.
	MassConsumed float64 `json:"massConsumed"`
	// NodesEvaluated is the solve's support size: proximity entries
	// actually computed.
	NodesEvaluated int `json:"nodesEvaluated"`
	// DurationNS is the solve's wall clock.
	DurationNS int64 `json:"durationNs"`
	// WorkerNS is, for the solve whose step made a coordinator's worker
	// call — the first of the run of solves the call returned — the
	// worker's own elapsed time for the whole run, inside DurationNS,
	// which is the call's wall clock plus that solve's replay; the rest
	// is transport and coordinator bookkeeping. The run's later solves
	// are replays: their DurationNS is the coordinator's bookkeeping
	// alone and their WorkerNS zero, as it is for in-process solves.
	WorkerNS int64 `json:"workerNs,omitempty"`
}

// QueryTrace records one query's execution structure. Instances are
// pooled by the HTTP layer; Reset prepares one for reuse keeping its
// slice capacity. Its JSON encoding is the ?trace=1 response's "trace"
// block, keys in field order.
type QueryTrace struct {
	// Steps lists shard solves in schedule order.
	Steps []SolveStep `json:"steps,omitempty"`
	// Residual is the residual-bound trajectory: total pending mass
	// after each solve. len(Residual) == len(Steps).
	Residual []float64 `json:"residual,omitempty"`

	// Solves counts shard solves; ShardsSolved distinct shards solved;
	// ShardsPruned shards left unsolved with pending inflow.
	Solves       int `json:"solves"`
	ShardsSolved int `json:"shardsSolved"`
	ShardsPruned int `json:"shardsPruned"`
	// NodesEvaluated is the summed solve support (proximities computed).
	NodesEvaluated int `json:"nodesEvaluated"`
	// Calls counts the worker calls a coordinator's query made: one per
	// run of solves on one worker, the rank's re-runs of the push past
	// its prefix included. Zero in process.
	Calls int `json:"calls"`
	// CutMassPruned is the residual mass never processed — the mass the
	// cut-mass bound proved could not change the answer.
	CutMassPruned float64 `json:"cutMassPruned"`
	// Converged reports whether the push drove the (weighted) residual
	// under tolerance rather than hitting the solve cap.
	Converged bool `json:"converged"`
	// CacheHit marks answers served from the server's cached top-K
	// list; the engine never ran, so every other field but
	// BarrierWaitNS is zero.
	CacheHit bool `json:"cacheHit"`

	// SolveNS is the push/search phase wall clock; RankNS the top-k
	// merge phase.
	SolveNS int64 `json:"solveNs"`
	RankNS  int64 `json:"rankNs"`
	// BarrierWaitNS is how long the request waited on the server's WAL
	// read barrier for an acked update to be applied, before the engine
	// (or the cache) was consulted. Zero outside WAL mode and whenever
	// nothing was pending.
	BarrierWaitNS int64 `json:"barrierWaitNs"`
}

// Reset clears the trace for reuse, keeping slice capacity.
func (t *QueryTrace) Reset() {
	t.Steps = t.Steps[:0]
	t.Residual = t.Residual[:0]
	t.SolveNS, t.RankNS = 0, 0
	t.Solves, t.ShardsSolved, t.ShardsPruned, t.NodesEvaluated, t.Calls = 0, 0, 0, 0, 0
	t.CutMassPruned = 0
	t.Converged = false
	t.CacheHit = false
	t.BarrierWaitNS = 0
}

// AddStep appends one shard solve and its post-solve residual bound.
func (t *QueryTrace) AddStep(s SolveStep, residualAfter float64) {
	t.Steps = append(t.Steps, s)
	t.Residual = append(t.Residual, residualAfter)
}
