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
//
// Under a RemoteSolver the workspaces live on the workers, so the state
// records each solve's right-hand side instead, and the values the rank
// will read are fetched with the push. Before the push the coordinator
// takes the rank prefix: whole BFS layers from the rank's roots, the
// fewest holding more than k + |exclude| nodes, since Lemma 2's
// heap-full guard keeps Algorithm 4 from stopping before it has visited
// that many. Every push solve asks its worker for the solved shard's cut
// rows plus the prefix's rows in the shard, and accumulates them in
// solve order with zeros skipped — the sum value() forms in process. A
// rank that visits a node past the prefix widens it by a BFS layer and
// replays each solved shard's recorded right-hand sides for the new rows
// (fetch), so the answer is exact for every k; at k = 10 the prefix
// almost always suffices.

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
// order. In process: each solve's L^{-1} workspace (lower[:nlower];
// pooled workspaces past nlower wait for reuse). Under a RemoteSolver:
// each solve's right-hand side, flat (solve r is rhsIdx/rhsVal over
// [rhsPtr[r], rhsPtr[r+1])), and the accumulated solution x at the rows
// fetched so far — the push's rows, ascending, then the rank's.
type shardSolves struct {
	ix     *core.Index // nil until this state first solves the shard locally
	solver *core.SparseSolver
	lower  []*lu.Workspace
	nlower int

	nremote int
	rhsPtr  []int
	rhsIdx  []int
	rhsVal  []float64
	rows    []int     // the rows x is known at
	x       []float64 // partLen-sized, live only on rows
	known   []bool    // known[lv]: lv is in rows
}

// recorded reports whether the query solved the shard.
func (ss *shardSolves) recorded() bool { return ss.nlower > 0 || ss.nremote > 0 }

// value returns the shard's accumulated solution at local row lv: each
// solve's value there, summed in solve order with zeros skipped — the
// float sequence of accumulating every solve's output into one vector.
// An unsolved shard's rows are 0, and reading them opens nothing. A
// remotely solved shard answers from x, which the caller must have
// fetched at lv (pushState.score does).
//
//kdash:noalloc
//kdash:deterministic
func (ss *shardSolves) value(lv int) float64 {
	if ss.nremote > 0 {
		return ss.x[lv]
	}
	x := 0.0
	for _, w := range ss.lower[:ss.nlower] {
		if v := ss.ix.UpperDot(lv, w); v != 0 {
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

	// The remote half (coordinator mode only): the rank prefix as a BFS
	// queue — whole layers, the last starting at prefix[player] — with
	// generation marks (pmark[g] == pgen: g is in the prefix), the row
	// and value scratch of one remote call, and the first failed fetch
	// of the rank, which the query reports once the rank returns.
	prefix []int
	pmark  []int
	pgen   int
	player int
	rowBuf []int
	valBuf []float64
	err    error

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
		} else if _, err := st.solveShard(best, &qs); err != nil {
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
// the solve evaluated, its wall clock and (remote solves) the worker's
// share of it, and the total residual left after — the residual-bound
// trajectory clients see in the trace block.
func (st *pushState) traceSolve(best int, totalBefore float64, qs *QueryStats) error {
	consumed := st.resMass[best]
	evalBefore := qs.NodesEvaluated
	t0 := time.Now() //kdash:allow(determinism) wall clock feeds only the trace block, never the solve or ranking
	workerNS, err := st.solveShard(best, qs)
	if err != nil {
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
		WorkerNS:       workerNS,
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
// RemoteSolver the worker computes the same row dots for the cut rows
// and the rank prefix's rows in the shard (remoteSolve). Either way the
// cut scatter walks the cut rows in ascending order with the same
// values, so both modes push bit-identically. It returns the worker's
// time for a remote solve. A failed shard open or worker call abandons
// the query with the error, never a partial answer.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) solveShard(best int, qs *QueryStats) (int64, error) {
	idx, val := st.consumeResidual(best)
	ss := &st.solves[best]
	if !ss.recorded() {
		qs.ShardsSolved++
	}
	var workerNS int64
	var err error
	if st.sx.remote != nil {
		workerNS, err = st.remoteSolve(best, ss, idx, val)
	} else {
		err = st.localSolve(best, ss, idx, val)
	}
	if err != nil {
		return 0, err
	}
	qs.Solves++
	st.sx.solveCounters()[best].Add(1)
	qs.NodesEvaluated += len(st.sx.parts[best].cutRows)
	return workerNS, nil
}

// localSolve is solveShard's in-process half: the L^{-1} pass into the
// shard's next pooled workspace, then one U^{-1} row dot per cut row,
// read from the part's packed copy of those rows, scattered across the
// cut in ascending row order.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) localSolve(best int, ss *shardSolves, idx []int, val []float64) error {
	p := st.sx.parts[best]
	if ss.solver == nil {
		ix, err := p.index()
		if err != nil {
			return err
		}
		ss.ix, ss.solver = ix, ix.NewSparseSolver() //kdash:allow(hotalloc) first touch of a shard creates its solver once per pooled state
	}
	if ss.nlower == len(ss.lower) {
		ss.lower = append(ss.lower, ss.ix.NewWorkspace()) //kdash:allow(hotalloc) a shard's first solve at this depth sizes its workspace once per pooled state
	}
	w := ss.lower[ss.nlower]
	if err := ss.solver.SolveLower(idx, val, w); err != nil {
		panic(fmt.Sprintf("shard: internal solve shape mismatch: %v", err)) //kdash:allow(hotalloc) unreachable: rhs is gathered from partLen-sized vectors
	}
	ss.nlower++
	cutUpper := p.cutRowsUpper(ss.ix)
	for k, lv := range p.cutRows {
		yv := cutUpper.Dot(k, w.W)
		if yv == 0 {
			continue
		}
		for _, e := range p.cuts[p.cutPtr[lv]:p.cutPtr[lv+1]] {
			st.addRes(e.dstShard, e.dst, e.w*yv)
		}
	}
	return nil
}

// remoteSolve is solveShard's coordinator half: it records the
// right-hand side, asks the worker for the solve's values at ss.rows —
// fixed at the shard's first solve to its cut rows merged with the rank
// prefix's rows, ascending — folds them into x and scatters the cut
// rows' values in ascending order, exactly as the in-process loop does
// (rows outside the cut own no cut edges).
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) remoteSolve(best int, ss *shardSolves, idx []int, val []float64) (int64, error) {
	p := st.sx.parts[best]
	if ss.nremote == 0 {
		if ss.x == nil {
			n := st.sx.partLen(best)
			ss.x = make([]float64, n)  //kdash:allow(hotalloc) first remote solve of a shard sizes its value vector once per pooled state
			ss.known = make([]bool, n) //kdash:allow(hotalloc) paired first-touch sizing
		}
		st.pushRows(best, ss)
		ss.rhsPtr = append(ss.rhsPtr[:0], 0)
	}
	ss.rhsIdx = append(ss.rhsIdx, idx...)
	ss.rhsVal = append(ss.rhsVal, val...)
	ss.rhsPtr = append(ss.rhsPtr, len(ss.rhsIdx))
	ss.nremote++
	out := st.values(len(ss.rows))
	workerNS, err := st.sx.remote.SolveRows(best, ss.rows, ss.rhsPtr[ss.nremote-1:], ss.rhsIdx, ss.rhsVal, out)
	if err != nil {
		return 0, err
	}
	for i, lv := range ss.rows {
		yv := out[i]
		if yv == 0 {
			continue
		}
		ss.x[lv] += yv
		for _, e := range p.cuts[p.cutPtr[lv]:p.cutPtr[lv+1]] {
			st.addRes(e.dstShard, e.dst, e.w*yv)
		}
	}
	return workerNS, nil
}

// pushRows sets ss.rows to shard si's cut rows merged with the rank
// prefix's rows in the shard, ascending and distinct, and marks them
// known: every push solve of the shard fetches exactly these rows.
//
//kdash:noalloc
func (st *pushState) pushRows(si int, ss *shardSolves) {
	sx := st.sx
	pre := st.rowBuf[:0]
	for _, g := range st.prefix {
		if sx.home[g] == si {
			pre = append(pre, sx.local[g])
		}
	}
	sort.Ints(pre)
	st.rowBuf = pre
	cut := sx.parts[si].cutRows
	rows := ss.rows[:0]
	i, j := 0, 0
	for i < len(cut) || j < len(pre) {
		switch {
		case j == len(pre) || (i < len(cut) && cut[i] < pre[j]):
			rows = append(rows, cut[i])
			i++
		case i == len(cut) || pre[j] < cut[i]:
			rows = append(rows, pre[j])
			j++
		default: // a prefix node that owns cut edges
			rows = append(rows, cut[i])
			i++
			j++
		}
	}
	for _, lv := range rows {
		ss.known[lv] = true
	}
	ss.rows = rows
}

// values returns the state's value scratch resized to n.
//
//kdash:noalloc
func (st *pushState) values(n int) []float64 {
	if cap(st.valBuf) < n {
		st.valBuf = make([]float64, n) //kdash:allow(hotalloc) grows once per pooled state to the widest remote call
	}
	return st.valBuf[:n]
}

// startPrefix makes roots (sorted, distinct) layer 0 of the rank prefix.
func (st *pushState) startPrefix(roots []int) {
	if st.pmark == nil {
		st.pmark = make([]int, st.sx.n)
	}
	st.pgen++
	st.prefix = append(st.prefix[:0], roots...)
	for _, g := range roots {
		st.pmark[g] = st.pgen
	}
	st.player = 0
}

// rankPrefix sets the prefix to the fewest whole BFS layers from the
// rank's roots that hold more than need nodes (all of the roots'
// component when fewer exist).
func (st *pushState) rankPrefix(need int) {
	st.startPrefix(st.roots)
	for len(st.prefix) <= need && st.widenPrefix() {
	}
}

// widenPrefix appends the next BFS layer over the graph snapshot and
// reports whether it added any node.
//
//kdash:noalloc
func (st *pushState) widenPrefix() bool {
	ptr, to := st.sx.g.OutCSR()
	end := len(st.prefix)
	for _, u := range st.prefix[st.player:end] {
		for _, v := range to[ptr[u]:ptr[u+1]] {
			if st.pmark[v] != st.pgen {
				st.pmark[v] = st.pgen
				st.prefix = append(st.prefix, v)
			}
		}
	}
	st.player = end
	return len(st.prefix) > end
}

// score is the rank's proximity source: node g's accumulated solution,
// fetched first when g lies in a remotely solved shard past the prefix.
// After a failed fetch it answers 0; the rank then reports the error.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) score(g int) float64 {
	si, lv := st.sx.home[g], st.sx.local[g]
	ss := &st.solves[si]
	if ss.nremote > 0 && !ss.known[lv] {
		if st.err != nil {
			return 0
		}
		st.fetch(g)
	}
	return ss.value(lv)
}

// fetch is the rank's fallback for a node g past the prefix: it widens
// the prefix by whole BFS layers until g is in it, then fetches the new
// nodes' rows from every remotely solved shard — one call per shard
// carrying all of the shard's recorded right-hand sides — and sums each
// row's values in solve order with zeros skipped, the float sequence
// the push's accumulation (and value, in process) forms.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) fetch(g int) {
	sx := st.sx
	// The rank's BFS runs from the same roots over the same graph, so
	// every node it scores is reached by widening.
	from := len(st.prefix)
	for st.pmark[g] != st.pgen && st.widenPrefix() {
	}
	for si := range st.solves {
		ss := &st.solves[si]
		if ss.nremote == 0 {
			continue
		}
		rows := st.rowBuf[:0]
		for _, v := range st.prefix[from:] {
			if lv := sx.local[v]; sx.home[v] == si && !ss.known[lv] {
				rows = append(rows, lv)
			}
		}
		st.rowBuf = rows
		if len(rows) == 0 {
			continue
		}
		out := st.values(ss.nremote * len(rows))
		if _, err := sx.remote.SolveRows(si, rows, ss.rhsPtr, ss.rhsIdx, ss.rhsVal, out); err != nil {
			st.err = err
			return
		}
		for i, lv := range rows {
			x := 0.0
			for r := 0; r < ss.nremote; r++ {
				if v := out[r*len(rows)+i]; v != 0 {
					x += v
				}
			}
			ss.x[lv] = x
			ss.known[lv] = true
			ss.rows = append(ss.rows, lv)
		}
	}
}

// rank runs Algorithm 4 over the epoch's graph snapshot from the state's
// roots, scoring each node it selects from the push's solve records, and
// returns the exact top-k (only positive scores are answers). Its
// proximity computations count into qs.NodesEvaluated; the remote
// fallback's fetches are transport and count nowhere. It allocates the
// O(k) result set and nothing else — deliberately not //kdash:noalloc.
//
//kdash:deterministic
func (st *pushState) rank(k int, exclude map[int]bool, qs *QueryStats) ([]topk.Result, error) {
	sx := st.sx
	if st.tree == nil {
		st.tree = core.NewTreeWS(sx.n)
	}
	heap := topk.New(k)
	var ss core.SearchStats
	ptr, to := sx.g.OutCSR()
	core.SearchTree(st.tree, &sx.bounds, ptr, to, st.roots, st.score, heap, exclude, true, &ss)
	if st.err != nil {
		return nil, st.err
	}
	qs.NodesEvaluated += ss.ProximityComputations
	if st.tr != nil {
		st.tr.NodesEvaluated += ss.ProximityComputations
	}
	return heap.Results(), nil
}

// materialize returns the accumulated solution as caller-owned
// per-shard vectors over owned rows (nil for unsolved shards), for the
// full-vector reads (ProximityVector, the test-only push wrappers): each
// recorded solve completed by a whole U^{-1} apply — or, for a remotely
// solved shard, one call fetching every owned row of every recorded
// solve — summed in solve order with zeros skipped: bit for bit what
// value computes row by row.
func (st *pushState) materialize() ([][]float64, error) {
	out := make([][]float64, len(st.sx.parts))
	for si, p := range st.sx.parts {
		ss := &st.solves[si]
		if !ss.recorded() {
			continue
		}
		x := make([]float64, len(p.nodes))
		if ss.nremote > 0 {
			rows := make([]int, len(x))
			for lv := range rows {
				rows[lv] = lv
			}
			vals := make([]float64, ss.nremote*len(rows))
			if _, err := st.sx.remote.SolveRows(si, rows, ss.rhsPtr, ss.rhsIdx, ss.rhsVal, vals); err != nil {
				return nil, err
			}
			for r := 0; r < ss.nremote; r++ {
				for lv, v := range vals[r*len(rows) : (r+1)*len(rows)] {
					if v != 0 {
						x[lv] += v
					}
				}
			}
			out[si] = x
			continue
		}
		for _, w := range ss.lower[:ss.nlower] {
			y, sup := ss.solver.ApplyUpper(w)
			if sup == nil { // a dense solve: every row
				for lv := range x {
					if y[lv] != 0 {
						x[lv] += y[lv]
					}
				}
				continue
			}
			for _, lv := range sup {
				if lv < len(x) && y[lv] != 0 { // the ghost sink's row is never ranked
					x[lv] += y[lv]
				}
			}
		}
		out[si] = x
	}
	return out, nil
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
		for _, lv := range ss.rows {
			ss.x[lv] = 0
			ss.known[lv] = false
		}
		ss.rows = ss.rows[:0]
		ss.nremote = 0
		ss.rhsIdx, ss.rhsVal = ss.rhsIdx[:0], ss.rhsVal[:0]
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
	st.prefix = st.prefix[:0]
	st.ctx, st.tr, st.err = nil, nil, nil
}
