package shard

// Pooled per-query state. A query runs in two phases over one pooled
// pushState: the cross-shard push (run) drives the residual to
// tolerance, and the rank (Algorithm 4 over the graph snapshot) reads
// proximities out of what the push recorded. The state keeps every
// vector a query needs — residuals, their touched-entry lists, each
// solve's L^{-1} workspace, one single-lane solver per shard and the
// rank's BFS scratch — alive across queries in a sync.Pool on the
// ShardedIndex. Queries check a private instance out (concurrent-safe:
// the pool hands each request its own state), run, and return it after
// spot-cleaning exactly the entries they touched, so the steady-state
// query path allocates only its O(k) result set.
//
// The push never applies a whole U^{-1}: a solve runs the L^{-1} pass,
// keeps the workspace, and evaluates only the solved shard's cut-owning
// rows (one U^{-1} row dot each), because the cut scatter is all the
// push itself reads. Any other row of the accumulated solution costs
// one row dot per solve of its shard, computed when the rank visits the
// node — the paper's proximity computation. Only the full-vector reads
// (materialize) complete the recorded solves with whole U^{-1} applies.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kdash/internal/core"
	"kdash/internal/lu"
	"kdash/internal/obs"
	"kdash/internal/topk"
)

// shardSolves records one shard's solves in the current query, in solve
// order: in process, each solve's L^{-1} workspace (lower[:nlower];
// pooled workspaces past nlower wait for reuse); under a RemoteSolver,
// the whole solutions the workers returned (ys).
type shardSolves struct {
	ix     *core.Index // nil until this state first solves the shard locally
	solver *core.SparseSolver
	lower  []*lu.Workspace
	nlower int
	ys     [][]float64
}

// recorded reports whether the query solved the shard.
func (ss *shardSolves) recorded() bool { return ss.nlower > 0 || len(ss.ys) > 0 }

// value returns the shard's accumulated solution at local row lv: each
// solve's value there, summed in solve order with zeros skipped — the
// float sequence of accumulating every solve's output into one vector.
// An unsolved shard's rows are 0, and reading them opens nothing.
//
//kdash:noalloc
//kdash:deterministic
func (ss *shardSolves) value(lv int) float64 {
	x := 0.0
	for _, w := range ss.lower[:ss.nlower] {
		if v := ss.ix.UpperDot(lv, w); v != 0 {
			x += v
		}
	}
	for _, y := range ss.ys {
		if v := y[lv]; v != 0 {
			x += v
		}
	}
	return x
}

// pushState is the complete state of one query. The invariant between
// queries: every vector is all-zero, every support list and solve
// record empty — maintained by release() spot-cleaning the touched
// entries, never by full-vector zeroing.
type pushState struct {
	sx *ShardedIndex

	// Residual right-hand sides per shard over partLen rows.
	res     [][]float64
	rmark   [][]bool
	rsup    [][]int // touched residual entries (local ids), per shard
	resMass []float64

	solves []shardSolves

	// Sorted sparse right-hand side scratch for the per-shard solves.
	rhsIdx []int
	rhsVal []float64

	// The rank's BFS scratch (sized to the graph on first use) and root
	// list.
	tree  *core.TreeWS
	roots []int

	initial float64 // total seeded mass this query

	// Per-query opt-ins, set by the caller after checkout and cleared
	// by release. Both nil on the hot path: every use is gated on the
	// pointer, so disabled queries pay a branch, not an allocation or a
	// clock read.
	ctx context.Context // cancellation, checked between shard solves
	tr  *obs.QueryTrace // trace recorder
}

func newPushState(sx *ShardedIndex) *pushState {
	s := len(sx.parts)
	return &pushState{
		sx:      sx,
		res:     make([][]float64, s),
		rmark:   make([][]bool, s),
		rsup:    make([][]int, s),
		resMass: make([]float64, s),
		solves:  make([]shardSolves, s),
	}
}

// getPushState checks clean per-query push state out of the pool.
//
//kdash:pooled
func (sx *ShardedIndex) getPushState() *pushState {
	if st, ok := sx.pushPool.Get().(*pushState); ok {
		return st
	}
	return newPushState(sx)
}

// putPushState restores the all-zero invariant and returns the state to
// the pool. The state's vectors and supports must not be read afterwards.
//
//kdash:release
func (sx *ShardedIndex) putPushState(st *pushState) {
	st.release()
	sx.pushPool.Put(st)
}

// seed adds restart mass m (already scaled by c) at global node g.
//
//kdash:noalloc
func (st *pushState) seed(g int, m float64) {
	st.addRes(st.sx.home[g], st.sx.local[g], m)
	st.initial += m
}

// addRes adds residual mass at (shard si, local row lv), recording the
// touch so consumption and cleanup iterate only written entries.
//
//kdash:noalloc
func (st *pushState) addRes(si, lv int, m float64) {
	if st.res[si] == nil {
		n := st.sx.partLen(si)
		st.res[si] = make([]float64, n) //kdash:allow(hotalloc) first touch of a shard sizes its residual vectors once per pooled state
		st.rmark[si] = make([]bool, n)  //kdash:allow(hotalloc) paired first-touch sizing
	}
	if !st.rmark[si][lv] {
		st.rmark[si][lv] = true
		st.rsup[si] = append(st.rsup[si], lv)
	}
	st.res[si][lv] += m
	st.resMass[si] += m
}

// run drives the push to convergence (see pushWeighted for the weighting
// contract) and reports the query's work. Per iteration the shard with
// the most pending (weighted) mass is solved, and its cut-owning rows
// scatter solved mass across the cut. A cancelled context (checked
// between shard solves, never per node) abandons the push with the
// context's error.
//
//kdash:noalloc
//kdash:deterministic
//kdash:ctxloop
func (st *pushState) run(w []float64) (QueryStats, error) {
	sx := st.sx
	var qs QueryStats
	s := len(sx.parts)
	tol := sx.qtol * st.initial

	total, weighted := st.initial, st.initial
	for {
		// The totals are re-summed rather than maintained incrementally:
		// the per-shard masses are exact (assigned, not drifted), and a
		// drifted running total can float just above tolerance forever.
		best, bestMass := -1, 0.0
		total, weighted = 0, 0
		for si := 0; si < s; si++ {
			total += st.resMass[si]
			m := st.resMass[si]
			if w != nil {
				m *= w[si]
			}
			weighted += m
			if m > bestMass {
				best, bestMass = si, m
			}
		}
		if weighted <= tol || best < 0 || qs.Solves >= maxSolves {
			break
		}
		if st.ctx != nil {
			if err := st.ctx.Err(); err != nil {
				return qs, fmt.Errorf("shard: query cancelled after %d solves: %w", qs.Solves, err) //kdash:allow(hotalloc) error construction only on abandoned queries, off the steady-state path
			}
		}
		if st.tr != nil {
			if err := st.traceSolve(best, total, &qs); err != nil {
				return qs, err
			}
		} else if err := st.solveShard(best, &qs); err != nil {
			return qs, err
		}
	}
	qs.ResidualMass = total
	qs.Converged = weighted <= tol
	for si := 0; si < s; si++ {
		if st.resMass[si] > 0 && !st.solves[si].recorded() {
			qs.ShardsPruned++
		}
	}
	if tr := st.tr; tr != nil {
		tr.Solves += qs.Solves
		tr.ShardsSolved += qs.ShardsSolved
		tr.ShardsPruned += qs.ShardsPruned
		tr.NodesEvaluated += qs.NodesEvaluated
		tr.CutMassPruned += qs.ResidualMass
		tr.Converged = qs.Converged
	}
	return qs, nil
}

// traceSolve wraps one solveShard call with trace recording: the
// pending-mass snapshot before, the shard's consumed mass, the cut rows
// the solve evaluated and its wall clock, and the total residual left
// after — the residual-bound trajectory clients see in the trace block.
func (st *pushState) traceSolve(best int, totalBefore float64, qs *QueryStats) error {
	consumed := st.resMass[best]
	evalBefore := qs.NodesEvaluated
	t0 := time.Now() //kdash:allow(determinism) wall clock feeds only the trace block, never the solve or ranking
	if err := st.solveShard(best, qs); err != nil {
		return err
	}
	d := time.Since(t0) //kdash:allow(determinism) trace-only duration
	after := 0.0
	for si := range st.resMass {
		after += st.resMass[si]
	}
	st.tr.AddStep(obs.SolveStep{
		Shard:          best,
		ResidualBefore: totalBefore,
		MassConsumed:   consumed,
		NodesEvaluated: qs.NodesEvaluated - evalBefore,
		DurationNS:     d.Nanoseconds(),
	}, after)
	return nil
}

// consumeResidual drains shard best's residual into an ascending sparse
// right-hand side in st.rhsIdx/st.rhsVal — the accumulation order the
// dense reference solve uses — zeroing the residual in the same pass
// (the solve absorbs the mass).
//
//kdash:noalloc
func (st *pushState) consumeResidual(best int) ([]int, []float64) {
	sup := st.rsup[best]
	sort.Ints(sup)
	idx, val := st.rhsIdx[:0], st.rhsVal[:0]
	rb, rm := st.res[best], st.rmark[best]
	for _, lv := range sup {
		if v := rb[lv]; v != 0 {
			idx = append(idx, lv)
			val = append(val, v)
		}
		rb[lv] = 0
		rm[lv] = false
	}
	st.rhsIdx, st.rhsVal = idx, val
	st.rsup[best] = sup[:0]
	st.resMass[best] = 0
	return idx, val
}

// solveShard consumes shard best's residual in one solve and scatters
// the solved mass across the shard's cut edges. In process the solve
// stops after its L^{-1} pass (kept in the shard's solve record) and
// only the cut-owning rows are completed, as U^{-1} row dots; under a
// RemoteSolver the worker returns the whole solution, which is kept and
// read at the same rows. Either way the cut scatter walks the cut rows
// in ascending order with the same values, so both modes push
// bit-identically. A failed shard open or worker call abandons the
// query with the error, never a partial answer.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) solveShard(best int, qs *QueryStats) error {
	sx := st.sx
	idx, val := st.consumeResidual(best)
	ss := &st.solves[best]
	if !ss.recorded() {
		qs.ShardsSolved++
	}
	var y []float64
	var w *lu.Workspace
	if r := sx.remote; r != nil {
		var err error
		if y, _, err = r.SolveSparse(best, idx, val); err != nil {
			return err
		}
		ss.ys = append(ss.ys, y)
	} else {
		if ss.solver == nil {
			ix, err := sx.parts[best].index()
			if err != nil {
				return err
			}
			ss.ix, ss.solver = ix, ix.NewSparseSolver() //kdash:allow(hotalloc) first touch of a shard creates its solver once per pooled state
		}
		if ss.nlower == len(ss.lower) {
			ss.lower = append(ss.lower, ss.ix.NewWorkspace()) //kdash:allow(hotalloc) a shard's first solve at this depth sizes its workspace once per pooled state
		}
		w = ss.lower[ss.nlower]
		if err := ss.solver.SolveLower(idx, val, w); err != nil {
			panic(fmt.Sprintf("shard: internal solve shape mismatch: %v", err)) //kdash:allow(hotalloc) unreachable: rhs is gathered from partLen-sized vectors
		}
		ss.nlower++
	}
	qs.Solves++
	sx.solveCounters()[best].Add(1)

	p := sx.parts[best]
	qs.NodesEvaluated += len(p.cutRows)
	for _, lv := range p.cutRows {
		var yv float64
		if y != nil {
			yv = y[lv]
		} else {
			yv = ss.ix.UpperDot(lv, w)
		}
		if yv == 0 {
			continue
		}
		for _, e := range p.cuts[p.cutPtr[lv]:p.cutPtr[lv+1]] {
			st.addRes(e.dstShard, e.dst, e.w*yv)
		}
	}
	return nil
}

// score is the rank's proximity source: node g's accumulated solution.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) score(g int) float64 {
	return st.solves[st.sx.home[g]].value(st.sx.local[g])
}

// rank runs Algorithm 4 over the epoch's graph snapshot from the state's
// roots, scoring each node it selects from the push's solve records, and
// returns the exact top-k (only positive scores are answers). Its
// proximity computations count into qs.NodesEvaluated. It allocates the
// O(k) result set and nothing else — deliberately not //kdash:noalloc.
//
//kdash:deterministic
func (st *pushState) rank(k int, exclude map[int]bool, qs *QueryStats) []topk.Result {
	sx := st.sx
	if st.tree == nil {
		st.tree = core.NewTreeWS(sx.n)
	}
	heap := topk.New(k)
	var ss core.SearchStats
	ptr, to := sx.g.OutCSR()
	core.SearchTree(st.tree, &sx.bounds, ptr, to, st.roots, st.score, heap, exclude, true, &ss)
	qs.NodesEvaluated += ss.ProximityComputations
	if st.tr != nil {
		st.tr.NodesEvaluated += ss.ProximityComputations
	}
	return heap.Results()
}

// materialize returns the accumulated solution as caller-owned
// per-shard vectors over owned rows (nil for unsolved shards), for the
// full-vector reads (ProximityVector, the test-only push wrappers): each
// recorded solve completed by a whole U^{-1} apply, summed in solve
// order with zeros skipped — bit for bit what value computes row by row.
func (st *pushState) materialize() [][]float64 {
	out := make([][]float64, len(st.sx.parts))
	for si, p := range st.sx.parts {
		ss := &st.solves[si]
		if !ss.recorded() {
			continue
		}
		x := make([]float64, len(p.nodes))
		add := func(y []float64, sup []int) {
			if sup == nil { // a dense solve: every row
				for lv := range x {
					if y[lv] != 0 {
						x[lv] += y[lv]
					}
				}
				return
			}
			for _, lv := range sup {
				if lv < len(x) && y[lv] != 0 { // the ghost sink's row is never ranked
					x[lv] += y[lv]
				}
			}
		}
		for _, w := range ss.lower[:ss.nlower] {
			add(ss.solver.ApplyUpper(w))
		}
		for _, y := range ss.ys {
			add(y, nil)
		}
		out[si] = x
	}
	return out
}

// release restores the all-zero invariant by spot-cleaning exactly the
// entries this query touched and resets the per-query bookkeeping.
//
//kdash:noalloc
func (st *pushState) release() {
	for si := range st.sx.parts {
		ss := &st.solves[si]
		for _, w := range ss.lower[:ss.nlower] {
			w.Reset()
		}
		ss.nlower = 0
		clear(ss.ys) // drop the workers' solutions for the collector
		ss.ys = ss.ys[:0]
		if len(st.rsup[si]) > 0 {
			rb, rm := st.res[si], st.rmark[si]
			for _, lv := range st.rsup[si] {
				rb[lv] = 0
				rm[lv] = false
			}
		}
		st.rsup[si] = st.rsup[si][:0]
		st.resMass[si] = 0
	}
	st.initial = 0
	st.roots = st.roots[:0]
	st.ctx, st.tr = nil, nil
}
