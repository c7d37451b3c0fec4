package shard

// Pooled per-query state. A query runs in two phases over one pooled
// pushState: the cross-shard push (run) drives the residual to
// tolerance, and the rank (Algorithm 4 over the graph snapshot) reads
// proximities out of what the push recorded. The state keeps the rank's
// BFS workspace and the per-query bookkeeping alive across queries in a
// free list on the ShardedIndex that keeps at most GOMAXPROCS idle
// states — about what can run at once — across garbage collections.
// The shard-sized vectors — each touched shard's residual and each
// solve's L^{-1} workspace — come from the index's one pool (vecPool),
// taken when the query first touches the shard or solves it and
// returned when the query releases, so the pool holds the most vectors
// running queries ever held at once.
// Queries check a private instance out (concurrent-safe: the pools hand
// each request its own), run, and return everything after spot-cleaning
// exactly the entries they touched, so the steady-state query path
// allocates only its O(k) result set.
//
// The push never applies a whole U^{-1}: a solve runs the L^{-1} pass,
// keeps the workspace, and evaluates only the solved shard's cut-owning
// rows (one U^{-1} row dot each), because the cut scatter is all the
// push itself reads. Any other row of the accumulated solution costs
// one row dot per solve of its shard, computed when the rank visits the
// node — the paper's proximity computation. The full-vector reads
// (materialize) are the same row dots, taken at every owned row.
//
// Under a RemoteSolver the workspaces live on the workers, so the values
// the rank will read are returned with the push. A push call ships the
// pending state of the called worker's shards, the worker continues the
// push on them while they hold the most pending mass, and the
// coordinator replays the returned solves one by one through its own
// loop (runRemote, remoteSolve). Before the push the coordinator takes
// the rank prefix: whole BFS layers from the rank's roots, the fewest
// holding more than k + |exclude| nodes, since Lemma 2's heap-full guard
// keeps Algorithm 4 from stopping before it has visited that many. The
// prefix is the start of the rank's own BFS, in the one TreeWS the rank
// then continues. Every push solve asks its worker for the solved
// shard's cut rows plus the prefix's rows in the shard, and accumulates
// them in solve order with zeros skipped — the sum value() forms in
// process — holding values only at those rows. A rank that visits a
// node past the prefix widens it by a BFS layer and runs the push again
// from the query's seeds (rerun), so the answer is exact for every k; at
// k = 10 the prefix almost always suffices.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kdash/internal/core"
	"kdash/internal/lu"
	"kdash/internal/obs"
	"kdash/internal/rpc"
	"kdash/internal/topk"
)

// shardSolves records one shard's solves in the current query, in solve
// order. In process: each solve's L^{-1} workspace, taken from the
// index's vector pool. Under a RemoteSolver: the number of solves and
// the accumulated solution at the rows every solve returned — the cut
// rows and the prefix's rows in the shard, ascending.
type shardSolves struct {
	ix    *core.Index // nil until this state first solves the shard locally
	lower []*lu.Workspace

	nremote int
	rows    []int     // the rows every solve returns, ascending
	vals    []float64 // the accumulated solution at rows[i]
}

// recorded reports whether the query solved the shard.
func (ss *shardSolves) recorded() bool { return len(ss.lower) > 0 || ss.nremote > 0 }

// value returns the in-process shard's accumulated solution at local
// row lv: each solve's value there, summed in solve order with zeros
// skipped — the float sequence of accumulating every solve's output
// into one vector. An unsolved shard's rows are 0, and reading them
// opens nothing. A remotely solved shard answers from its returned rows
// instead (pushState.score).
//
//kdash:noalloc
//kdash:deterministic
func (ss *shardSolves) value(lv int) float64 {
	x := 0.0
	for _, w := range ss.lower {
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

	// Residual right-hand sides per shard (nil until the query touches
	// the shard), pooled vectors like the workspaces, and their masses.
	res     []*lu.Workspace
	resMass []float64

	solves []shardSolves

	// Sorted sparse right-hand side scratch for the per-shard solves.
	rhsIdx []int
	rhsVal []float64

	// The query's restart mass, mass[i] at nodes[i], copied from the
	// caller so its slices need not escape: a re-run seeds them again.
	nodes []int
	mass  []float64

	// The rank's BFS workspace (sized to the graph on first use) and
	// root list.
	tree  *core.TreeWS
	roots []int

	// The remote half (coordinator mode only): the rank prefix, the
	// tree's first plen queued nodes — whole BFS layers — and the first
	// failed re-run of the rank, which the query reports once the rank
	// returns.
	plen int
	err  error

	// The last worker run (coordinator mode only): its request — whose
	// prefix sections hold every shard's prefix rows for the whole push —
	// its reply and the reply step the push replays next. On a worker,
	// the scatter contributions its run defers (RunShardRows).
	runReq  rpc.RunRowsRequest
	runRep  rpc.RunRowsReply
	runNext int
	pend    []pendingAdd

	tol float64 // the push's tolerance on the total residual

	// scratch is the state's own arrays' bytes as last counted into
	// QueryScratchBytes; a cleanup takes them back out once the state is
	// collected.
	scratch *atomic.Int64

	// Per-query opt-ins, set by the caller after checkout and cleared
	// by release. Both nil on the hot path: every use is gated on the
	// pointer, so disabled queries pay a branch, not an allocation or a
	// clock read.
	ctx context.Context // cancellation, checked between shard solves
	tr  *obs.QueryTrace // trace recorder
}

func newPushState(sx *ShardedIndex) *pushState {
	s := len(sx.parts)
	st := &pushState{
		sx:      sx,
		res:     make([]*lu.Workspace, s),
		resMass: make([]float64, s),
		solves:  make([]shardSolves, s),
		scratch: new(atomic.Int64),
	}
	sx.pushStates.Add(1)
	runtime.AddCleanup(st, func(n *atomic.Int64) { queryScratch.Add(-n.Load()) }, st.scratch)
	return st
}

// scratchBytes reports the state's own arrays' allocated bytes: the BFS
// workspace, the per-shard tables and solve records (remote rows and
// values included) and the call scratch, a worker run's request and
// reply among it. The residuals and workspaces
// it borrows are the index pool's and counted there.
//
//kdash:noalloc
func (st *pushState) scratchBytes() int64 {
	q, rep := &st.runReq, &st.runRep
	n := int64(8*cap(st.res) + 8*cap(st.resMass) + int(unsafe.Sizeof(shardSolves{}))*cap(st.solves) +
		8*(cap(st.rhsIdx)+cap(st.rhsVal)+cap(st.roots)+cap(st.nodes)+cap(st.mass)) +
		8*(cap(q.ResPtr)+cap(q.ResIdx)+cap(q.ResVal)+cap(q.PrePtr)+cap(q.PreRows)+cap(rep.Steps)+cap(rep.Ptr)+cap(rep.Vals)) +
		int(unsafe.Sizeof(pendingAdd{}))*cap(st.pend))
	if st.tree != nil {
		n += st.tree.Bytes()
	}
	for i := range st.solves {
		ss := &st.solves[i]
		n += int64(8 * (cap(ss.lower) + cap(ss.rows) + cap(ss.vals)))
	}
	return n
}

// vecPool is the LIFO free list of the dense vectors an index's queries
// borrow, residuals and L^{-1} workspaces alike: W is zero off Sup (a
// residual lists a row at first touch; consumeResidual's zero skip
// tolerates a row listed twice), and n long, the longest part's PartLen,
// which every kernel indexes below. The vector released last, still in
// cache, is checked out first.
type vecPool struct {
	n    int
	free freeList[*lu.Workspace]
}

// poolVectors gives sx from, an earlier epoch's pool, when its vectors
// fit every part of sx, otherwise a fresh pool sized to the longest
// part: the node and cut lists fix it, so sizing opens no shard file.
func (sx *ShardedIndex) poolVectors(from *vecPool) {
	n := 0
	for si := range sx.parts {
		n = max(n, sx.PartLen(si))
	}
	if sx.vecs = from; from == nil || from.n < n {
		sx.vecs = &vecPool{n: n}
	}
}

// freeList is a pool of one kind of query scratch (the index's dense
// vectors or its push states): a mutex-guarded stack that, unlike a sync.Pool,
// keeps its items across garbage collections, so scratch is allocated
// once per peak of concurrent use rather than again after every
// collection.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops an item, reporting false when the list is empty.
//
//kdash:noalloc
func (l *freeList[T]) get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var x T
	if n := len(l.items); n > 0 {
		x, l.items[n-1] = l.items[n-1], x
		l.items = l.items[:n-1]
		return x, true
	}
	return x, false
}

// put pushes an item unless the list already holds max, leaving it to
// the collector then.
//
//kdash:noalloc
func (l *freeList[T]) put(x T, max int) {
	l.mu.Lock()
	if len(l.items) < max {
		l.items = append(l.items, x) //kdash:allow(hotalloc) grows to the peak concurrent use (at most max), once
	}
	l.mu.Unlock()
}

// getVector checks a clean vector out of the index's pool, for a
// residual or a workspace of any part, in the push or a worker's run.
//
//kdash:pooled
func (sx *ShardedIndex) getVector() *lu.Workspace {
	if w, ok := sx.vecs.free.get(); ok {
		return w
	}
	return countScratch(lu.NewWorkspace(sx.vecs.n), 8*sx.vecs.n) //kdash:allow(hotalloc) a pool miss sizes one vector
}

// putVector spot-cleans w by its support list and returns it to the
// index's pool.
//
//kdash:release
func (sx *ShardedIndex) putVector(w *lu.Workspace) {
	w.Reset()
	sx.vecs.free.put(w, math.MaxInt)
}

// queryScratch is QueryScratchBytes' account.
var queryScratch atomic.Int64

// QueryScratchBytes reports the bytes of per-query scratch the process
// holds: the dense vectors (residuals and L^{-1} workspaces) the
// indexes' pools hold, until freed with the last epoch sharing the
// pool, and every pooled push state's own
// arrays (its BFS workspace, remote rows and values, solve records), as
// of its last release, until the state is collected.
func QueryScratchBytes() int64 { return queryScratch.Load() }

// countScratch counts n bytes of the pool-miss allocation x into
// queryScratch until x is collected.
func countScratch[T any](x *T, n int) *T {
	queryScratch.Add(int64(n))
	runtime.AddCleanup(x, func(n int64) { queryScratch.Add(-n) }, int64(n))
	return x
}

// getPushState checks clean per-query push state out of the pool.
//
//kdash:pooled
func (sx *ShardedIndex) getPushState() *pushState {
	if st, ok := sx.pushPool.get(); ok {
		return st
	}
	return newPushState(sx)
}

// putPushState restores the all-zero invariant and returns the state to
// the pool, which keeps at most GOMAXPROCS idle states; a state past
// that is left to the collector. The state's vectors and supports must
// not be read afterwards.
//
//kdash:release
func (sx *ShardedIndex) putPushState(st *pushState) {
	st.release()
	sx.pushPool.put(st, runtime.GOMAXPROCS(0))
}

// seed adds the query's restart mass, mass[i] (already scaled by c) at
// node nodes[i], in the order given — for the push and for every re-run
// alike — and returns its total.
//
//kdash:noalloc
func (st *pushState) seed() (total float64) {
	for i, g := range st.nodes {
		st.addRes(int(st.sx.home[g]), int(st.sx.local[g]), st.mass[i])
		total += st.mass[i]
	}
	return total
}

// addRes adds residual mass at (shard si, local row lv), recording the
// touch so consumption and cleanup iterate only written entries.
//
//kdash:noalloc
func (st *pushState) addRes(si, lv int, m float64) {
	r := st.res[si]
	if r == nil {
		r = st.sx.getVector()
		st.res[si] = r
	}
	if r.W[lv] == 0 {
		r.Sup = append(r.Sup, lv)
	}
	r.W[lv] += m
	st.resMass[si] += m
}

// run drives the push to convergence (push) and reports the query's
// work: its solves count into the index's per-shard solve counters, and
// the shards left with pending mass but never solved are the pruned
// ones.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) run() (QueryStats, error) {
	st.tol = st.sx.qtol * st.seed()
	qs, err := st.push(st.tr != nil)
	counters := st.sx.solveCounters()
	for si := range st.solves {
		ss := &st.solves[si]
		if n := len(ss.lower) + ss.nremote; n > 0 {
			counters[si].Add(int64(n))
		} else if st.resMass[si] > 0 {
			qs.ShardsPruned++
		}
	}
	if err != nil {
		return qs, err
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

// push is the push's loop: per iteration the shard with the most
// pending mass is solved, and its cut-owning rows scatter solved mass
// across the cut, until the total residual falls under tolerance,
// bounding every proximity entry. traced records each solve as a trace
// step. A cancelled context (checked between shard solves, never per
// node) abandons the push with the context's error.
//
//kdash:noalloc
//kdash:deterministic
//kdash:ctxloop
func (st *pushState) push(traced bool) (QueryStats, error) {
	var qs QueryStats
	for {
		best, total := st.pick()
		qs.ResidualMass = total
		if total <= st.tol || best < 0 || qs.Solves >= maxSolves {
			break
		}
		if st.ctx != nil {
			if err := st.ctx.Err(); err != nil {
				return qs, fmt.Errorf("shard: query cancelled after %d solves: %w", qs.Solves, err) //kdash:allow(hotalloc) error construction only on abandoned queries, off the steady-state path
			}
		}
		if traced {
			if err := st.traceSolve(best, total, &qs); err != nil {
				return qs, err
			}
		} else if _, err := st.solveShard(best, &qs); err != nil {
			return qs, err
		}
	}
	if left := len(st.runRep.Steps) - st.runNext; left > 0 {
		return qs, fmt.Errorf("%w: a worker ran %d solves past the push's end", rpc.ErrUnavailable, left) //kdash:allow(hotalloc) error construction only on a worker breaking its contract
	}
	qs.Converged = qs.ResidualMass <= st.tol
	return qs, nil
}

// pick returns the shard with the most pending mass — by strict >, so
// the lowest index among ties; -1 when no shard holds any — and the
// total pending mass. The total is re-summed rather than maintained
// incrementally: the per-shard masses are exact (assigned, not
// drifted), and a drifted running total can float just above tolerance
// forever. A coordinator's push and a worker's run (RunShardRows) pick
// with this one function, so they choose the same shards.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) pick() (best int, total float64) {
	best, bestMass := -1, 0.0
	for si, m := range st.resMass {
		total += m
		if m > bestMass {
			best, bestMass = si, m
		}
	}
	return best, total
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
	r := st.res[best]
	sort.Ints(r.Sup)
	idx, val := st.rhsIdx[:0], st.rhsVal[:0]
	for _, lv := range r.Sup {
		if v := r.W[lv]; v != 0 {
			idx = append(idx, lv)
			val = append(val, v)
		}
		r.W[lv] = 0
	}
	st.rhsIdx, st.rhsVal = idx, val
	r.Sup = r.Sup[:0]
	st.resMass[best] = 0
	return idx, val
}

// solveShard consumes shard best's residual in one solve and scatters
// the solved mass across the shard's cut edges. In process the solve
// stops after its L^{-1} pass (kept in the shard's solve record) and
// only the cut-owning rows are completed, as U^{-1} row dots; under a
// RemoteSolver the worker computes the same row dots for the cut rows
// and the rank prefix's rows in the shard, in a run of solves one call
// returns (runRemote, remoteSolve). Either way the cut scatter walks the
// cut rows in ascending order with the same values, so both modes push
// bit-identically. It returns the worker's time when the solve made the
// call. A failed shard open or worker call abandons the query with the
// error, never a partial answer.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) solveShard(best int, qs *QueryStats) (int64, error) {
	var workerNS int64
	remote := st.sx.remote != nil
	if remote && st.runNext == len(st.runRep.Steps) {
		// The state before consumption is what the worker continues.
		if err := st.runRemote(best, maxSolves-qs.Solves); err != nil {
			return 0, err
		}
		workerNS = st.runRep.WorkerNS
	}
	idx, val := st.consumeResidual(best)
	ss := &st.solves[best]
	if !ss.recorded() {
		qs.ShardsSolved++
	}
	var err error
	if remote {
		err = st.remoteSolve(best, ss)
	} else {
		err = st.localSolve(best, ss, idx, val)
	}
	if err != nil {
		return 0, err
	}
	qs.Solves++
	qs.NodesEvaluated += len(st.sx.parts[best].cutRows)
	return workerNS, nil
}

// localSolve is solveShard's in-process half: the L^{-1} pass into a
// workspace from the index's pool, then one U^{-1} row dot per cut row,
// read from the part's packed copy of those rows, scattered across the
// cut in ascending row order.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) localSolve(best int, ss *shardSolves, idx []int, val []float64) error {
	p := st.sx.parts[best]
	if ss.ix == nil {
		ix, err := p.index()
		if err != nil {
			return err
		}
		ss.ix = ix
	}
	w := st.sx.getVector()
	ss.lower = append(ss.lower, w) //kdash:allow(hotalloc) grows once per pooled state to the deepest solve record
	if err := ss.ix.SolveLower(idx, val, w); err != nil {
		panic(fmt.Sprintf("shard: internal solve shape mismatch: %v", err)) //kdash:allow(hotalloc) unreachable: the rhs rows are the shard's own, ascending
	}
	cutUpper := p.cutRowsUpper(ss.ix)
	for k := range p.cutRows {
		if yv := cutUpper.Dot(k, w.W); yv != 0 {
			st.scatter(p, k, yv)
		}
	}
	return nil
}

// scatter adds cut row k's solved value yv, times each of its cut
// edges' weights, to the edges' destinations' residuals, in edge order.
// The product is rounded before it is added (the conversion forbids a
// fused multiply-add), so a worker's run, which adds the same products
// to masses and residuals in separate steps (scatterRun), forms the
// same bits on every platform.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) scatter(p *part, k int, yv float64) {
	for _, e := range p.rowCuts(k) {
		st.addRes(int(e.dstShard), int(e.dst), float64(e.w*yv))
	}
}

// runRemote asks best's worker to continue the push from the state as
// it stands, with budget solves left: it ships every shard's mass and
// nonzero residual entries, ascending, beside the push's prefix
// sections (prefixSections); the solver names the worker's shards
// (q.Served) and sends only theirs. The reply's steps wait for
// remoteSolve to replay them.
//
//kdash:noalloc
func (st *pushState) runRemote(best, budget int) error {
	q := &st.runReq
	q.Mass, q.Tol, q.Budget = st.resMass, st.tol, budget
	q.ResPtr, q.ResIdx, q.ResVal = append(q.ResPtr[:0], 0), q.ResIdx[:0], q.ResVal[:0]
	for _, r := range st.res {
		if r != nil {
			sort.Ints(r.Sup)
			prev := -1
			for _, lv := range r.Sup {
				if v := r.W[lv]; v != 0 && lv != prev { // a row listed twice is sent once
					q.ResIdx = append(q.ResIdx, lv) //kdash:allow(hotalloc) grows once per pooled state to the largest run request
					q.ResVal = append(q.ResVal, v)  //kdash:allow(hotalloc) paired growth
				}
				prev = lv
			}
		}
		q.ResPtr = append(q.ResPtr, len(q.ResIdx)) //kdash:allow(hotalloc) grows once per pooled state to the shard count
	}
	st.runNext = 0
	if st.tr != nil {
		st.tr.Calls++
	}
	return st.sx.remote.RunRows(best, q, &st.runRep)
}

// prefixSections sets the run request's prefix sections for the whole
// push: shard si's prefix rows, ascending, over [PrePtr[si],
// PrePtr[si+1]) — with every a full-vector read's every owned row.
//
//kdash:noalloc
func (st *pushState) prefixSections(every bool) {
	q := &st.runReq
	q.PrePtr, q.PreRows = append(q.PrePtr[:0], 0), q.PreRows[:0]
	for si, p := range st.sx.parts {
		if every {
			for lv := range p.nodes {
				q.PreRows = append(q.PreRows, lv) //kdash:allow(hotalloc) grows once per pooled state to the graph's node count
			}
		} else {
			q.PreRows = st.prefixRows(q.PreRows, si)
		}
		q.PrePtr = append(q.PrePtr, len(q.PreRows)) //kdash:allow(hotalloc) grows once per pooled state to the shard count
	}
}

// remoteSolve is solveShard's coordinator half: it replays the next step
// of the last worker run — its values at ss.rows, fixed at the shard's
// first solve to its cut rows merged with the prefix's rows, ascending —
// folding them into ss.vals and scattering the cut rows' values, exactly
// as the in-process loop does (rows outside the cut own no cut edges).
// A step that names another shard than the push chose, or a shard the
// called worker does not serve, or holds another number of values than
// ss.rows, is the worker breaking its contract: the query is abandoned
// as unavailable.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) remoteSolve(best int, ss *shardSolves) error {
	q, rep, s := &st.runReq, &st.runRep, st.runNext
	if ss.nremote == 0 {
		ss.setRows(st.sx.parts[best].cutRows, q.PreRows[q.PrePtr[best]:q.PrePtr[best+1]])
	}
	if s == len(rep.Steps) || rep.Steps[s] != best {
		return fmt.Errorf("%w: a worker's run does not solve shard %d next", rpc.ErrUnavailable, best) //kdash:allow(hotalloc) error construction only on a worker breaking its contract
	}
	if _, served := slices.BinarySearch(q.Served, best); !served {
		return fmt.Errorf("%w: a worker solved shard %d, which it does not serve", rpc.ErrUnavailable, best) //kdash:allow(hotalloc) error construction only on a worker breaking its contract
	}
	out := rep.Vals[rep.Ptr[s]:rep.Ptr[s+1]]
	if len(out) != len(ss.rows) {
		return fmt.Errorf("%w: a worker returned %d values for shard %d's %d rows", rpc.ErrUnavailable, len(out), best, len(ss.rows)) //kdash:allow(hotalloc) error construction only on a worker breaking its contract
	}
	ss.nremote++
	st.runNext++
	st.fold(st.sx.parts[best], ss, out)
	return nil
}

// fold adds one solve's values out, at ss.rows, to ss.vals and scatters
// the cut rows' values in ascending order, skipping zeros — the
// coordinator's replay and the worker's run alike.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) fold(p *part, ss *shardSolves, out []float64) {
	k := 0 // cursor into the cut rows, which ss.rows lists in order
	for i, lv := range ss.rows {
		cut := -1
		if k < len(p.cutRows) && p.cutRows[k] == lv {
			cut = k
			k++
		}
		if yv := out[i]; yv != 0 {
			ss.vals[i] += yv
			if cut >= 0 {
				st.scatter(p, cut, yv)
			}
		}
	}
}

// prefixRows appends the rank prefix's rows in shard si to dst,
// ascending.
//
//kdash:noalloc
func (st *pushState) prefixRows(dst []int, si int) []int {
	sx := st.sx
	n := len(dst)
	for _, g := range st.tree.Queue()[:st.plen] {
		if int(sx.home[g]) == si {
			dst = append(dst, int(sx.local[g])) //kdash:allow(hotalloc) grows once per pooled state to the widest prefix
		}
	}
	sort.Ints(dst[n:])
	return dst
}

// setRows sets ss.rows to the cut rows merged with the prefix rows pre
// (both ascending) — distinct, ascending — with zero values: every push
// solve of the shard returns exactly these rows.
//
//kdash:noalloc
func (ss *shardSolves) setRows(cut, pre []int) {
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
	ss.rows = rows
	if cap(ss.vals) < len(rows) {
		ss.vals = make([]float64, len(rows)) //kdash:allow(hotalloc) grows once per pooled state to the shard's widest row set
	} else {
		ss.vals = ss.vals[:len(rows)]
		clear(ss.vals)
	}
}

// find returns the index of local row lv in ss.rows, and whether the
// shard's rows hold it.
//
//kdash:noalloc
func (ss *shardSolves) find(lv int) (int, bool) { return slices.BinarySearch(ss.rows, lv) }

// widenPrefix adds the next BFS layer over the graph snapshot to the
// prefix and reports whether it added any node.
//
//kdash:noalloc
func (st *pushState) widenPrefix() bool {
	ptr, to := st.sx.g.OutCSR()
	end := st.tree.NextLayer(ptr, to, st.plen)
	if end == st.plen {
		return false
	}
	st.plen = end
	return true
}

// inPrefix reports whether node g, which the rank's BFS has reached,
// lies in the prefix.
//
//kdash:noalloc
func (st *pushState) inPrefix(g int) bool {
	l, _ := st.tree.Reached(g)
	last, _ := st.tree.Reached(st.tree.Queue()[st.plen-1])
	return l <= last
}

// score is the rank's proximity source: node g's accumulated solution,
// after a re-run of the push when g lies in a remotely solved shard past
// the prefix. After a failed re-run it answers 0; the rank then reports
// the error.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) score(g int) float64 {
	si, lv := st.sx.home[g], int(st.sx.local[g])
	ss := &st.solves[si]
	if ss.nremote == 0 {
		return ss.value(lv)
	}
	if st.err != nil {
		return 0
	}
	i, ok := ss.find(lv)
	if !ok {
		if st.rerun(g); st.err != nil {
			return 0
		}
		if i, ok = ss.find(lv); !ok {
			st.err = fmt.Errorf("%w: a re-run of the push did not solve shard %d", rpc.ErrUnavailable, si) //kdash:allow(hotalloc) error construction only on a worker breaking its contract
			return 0
		}
	}
	return ss.vals[i]
}

// rerun is the rank's fallback for a node g past the prefix: it widens
// the prefix by whole BFS layers until g is in it — the prefix is the
// start of the rank's own BFS, which has reached g — and runs the push
// again from the query's seeds, every solve now returning the wider
// prefix's rows too. The push is deterministic and the prefix changes
// only which rows a solve returns, never which shards are solved or
// what is scattered, so the re-run is the same push: every row the
// first one returned has the same bits. A re-run counts in no
// QueryStats, trace step or solve counter; its worker calls count in the
// trace's calls.
//
//kdash:noalloc
//kdash:deterministic
func (st *pushState) rerun(g int) {
	for !st.inPrefix(g) && st.widenPrefix() {
	}
	st.resetPush()
	st.seed()
	st.prefixSections(false)
	_, st.err = st.push(false)
}

// rank runs Algorithm 4 over the epoch's graph snapshot, continuing the
// BFS runPush began from the state's roots (and the remote prefix
// widened), scoring each node it selects from the push's solve records,
// and returns the exact top-k (only positive scores are answers). opt
// supplies Exclude and the ablation knobs: DisablePruning scores every
// node the tree reaches, and RandomRoot visits every node from the root
// RootSeed picks (core.TreeWS.SearchAnyRoot), the single query node's
// tree restarted, which only an in-process push may do. Its proximity
// computations count into qs.NodesEvaluated; the remote fallback's
// re-runs are transport and count nowhere. It allocates the O(k) result
// set and nothing else — deliberately not //kdash:noalloc.
//
//kdash:deterministic
func (st *pushState) rank(k int, opt *core.SearchOptions, qs *QueryStats) ([]topk.Result, error) {
	sx := st.sx
	heap := topk.New(k)
	var ss core.SearchStats
	ptr, to := sx.g.OutCSR()
	if opt.RandomRoot {
		n := int64(sx.n)
		root := int((opt.RootSeed%n + n) % n)
		st.tree.SearchAnyRoot(&sx.bounds, ptr, to, root, st.roots[0], st.score, heap, opt.Exclude, !opt.DisablePruning, &ss)
	} else {
		st.tree.Search(&sx.bounds, ptr, to, st.score, heap, opt.Exclude, !opt.DisablePruning, &ss)
	}
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
// full-vector read, ProximityVector. In process every owned row is read
// through value, the rank's own row dots; a remotely solved shard's
// push returned every owned row (prefixSections), summed in solve order
// with zeros skipped — bit for bit what value computes.
func (st *pushState) materialize() [][]float64 {
	out := make([][]float64, len(st.sx.parts))
	for si, p := range st.sx.parts {
		ss := &st.solves[si]
		if !ss.recorded() {
			continue
		}
		x := make([]float64, len(p.nodes)) // the ghost sink's row is never read
		if ss.nremote > 0 {
			copy(x, ss.vals)
		} else {
			for lv := range x {
				x[lv] = ss.value(lv)
			}
		}
		out[si] = x
	}
	return out
}

// resetPush clears the push half of the state — residuals, masses,
// solve records and the last run — for a re-run, keeping the rank half:
// the tree, its roots and the prefix.
//
//kdash:noalloc
func (st *pushState) resetPush() {
	for si := range st.solves {
		ss := &st.solves[si]
		for i, w := range ss.lower {
			st.sx.putVector(w)
			ss.lower[i] = nil
		}
		ss.lower = ss.lower[:0]
		ss.rows, ss.vals = ss.rows[:0], ss.vals[:0]
		ss.nremote = 0
		if r := st.res[si]; r != nil {
			st.sx.putVector(r)
			st.res[si] = nil
		}
		st.resMass[si] = 0
	}
	q := &st.runReq
	q.Served, q.Mass = nil, nil
	st.runRep.Reset()
	st.runNext = 0
}

// release restores the all-zero invariant by spot-cleaning exactly the
// entries this query touched and resets the per-query bookkeeping.
//
//kdash:noalloc
func (st *pushState) release() {
	st.resetPush()
	st.pend = st.pend[:0]
	st.tol = 0
	st.nodes, st.mass = st.nodes[:0], st.mass[:0]
	st.roots = st.roots[:0]
	st.plen = 0
	st.ctx, st.tr, st.err = nil, nil, nil
	n := st.scratchBytes()
	queryScratch.Add(n - st.scratch.Swap(n))
}
