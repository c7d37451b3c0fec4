package shard

// Distributed-serving seam. In coordinator mode the greedy cross-shard
// push — residual bookkeeping, commit order, cut-edge scatter — and the
// rank run unchanged in the coordinator process, and only the per-shard
// factor solves are routed through a RemoteSolver to the workers owning
// the shards. A remote solve names the rows it needs: the solved shard's
// cut-owning rows (what the scatter reads) plus the rank prefix's rows
// in that shard (what the rank will read; every owned row for a full
// vector), and the worker answers with one U^{-1} row dot per row — the
// very calls, on the very workspace bits, an in-process push and rank
// make. A rank that walks past the prefix widens it and runs the push
// again (see state.go). Because a row dot is a pure function of (shard,
// right-hand side, row) and the wire carries raw float64 bits, the
// distributed query computes exactly the bytes the single-process one
// would have: the exactness argument is "same inputs, same function,
// same order", not "close enough".
//
// The push's solves are not one call each. A call ships the pending
// state of the shards the called worker serves (RunRows), and the
// worker continues the push itself — the same selection, solves and
// scatter, on the same bits — for as long as the shard with the most
// pending mass is one of its own, returning every solve's values. The
// coordinator then replays those solves through its own push, which
// chooses the same shards and so consumes the steps in order
// (remoteSolve). The worker side of the seam is RunShardRows below.

import (
	"fmt"
	"math"
	"slices"

	"kdash/internal/rpc"
)

// RemoteSolver routes per-shard factor solves to remote workers. An
// implementation must be safe for concurrent calls (concurrent queries
// share it) and must not retain its arguments after returning.
//
// RunRows sets q.Served to the shards served by shard si's worker,
// ascending (si among them), sends q to that worker — the sections of
// the served shards only — and fills rep with ShardedIndex.RunShardRows's
// reply against the real factors, the worker's elapsed time included.
type RemoteSolver interface {
	RunRows(si int, q *rpc.RunRowsRequest, rep *rpc.RunRowsReply) error
}

// SetRemoteSolver routes every factor solve through r (nil restores
// local solving). Set it before serving queries; it is not carried
// across Apply — bind a fresh solver on each successor epoch.
func (sx *ShardedIndex) SetRemoteSolver(r RemoteSolver) { sx.remote = r }

// SetFactorless marks the index coordinator-side: shard rebuilds under
// Apply skip the factorization entirely (p.ix stays nil), keeping only
// the placement map, cut lists and graph snapshot the push bookkeeping
// needs. Only valid together with SetRemoteSolver on an index whose
// shard files were opened lazily — with factors absent, any local solve
// would fault.
func (sx *ShardedIndex) SetFactorless() { sx.factorless = true }

// RunShardRows is the worker side of RemoteSolver.RunRows: it continues
// the push from q's pending state on the shards q.Served names, exactly
// as the coordinator's own loop (pushState.push) would. Each step
// re-sums the total over every shard's mass and picks the shard with
// the most (strict >, lowest index); the run stops when the total is
// within q.Tol, after q.Budget or rpc.MaxRunSteps solves, or when that
// shard is not served here. A step consumes the shard's residual,
// solves it, appends its values at the shard's cut rows merged with its
// prefix rows (ascending) to rep, and scatters the cut rows' values
// into every shard's mass and the served shards' residuals, in the
// order the coordinator's replay will (scatterRun; a served shard's
// residual is built only if the run solves it). Everything is
// validated before any solve, so hostile input is an error, never a
// fault; no shard outside q.Served is opened. It keeps nothing between
// calls. Safe for concurrent calls.
func (sx *ShardedIndex) RunShardRows(q *rpc.RunRowsRequest, rep *rpc.RunRowsReply) error {
	if err := sx.checkRun(q); err != nil {
		return err
	}
	rep.Reset()
	st := sx.getPushState()
	defer sx.putPushState(st)
	copy(st.resMass, q.Mass)
	w := sx.getVector()
	defer sx.putVector(w)
	for len(rep.Steps) < min(q.Budget, rpc.MaxRunSteps) {
		best, total := st.pick()
		if total <= q.Tol || best < 0 {
			break
		}
		if _, served := slices.BinarySearch(q.Served, best); !served {
			break
		}
		p := sx.parts[best]
		ix, err := p.index()
		if err != nil {
			return err
		}
		ss := &st.solves[best]
		if st.res[best] == nil { // the shard's first solve in this run
			st.buildRes(best, q.ResIdx[q.ResPtr[best]:q.ResPtr[best+1]], q.ResVal[q.ResPtr[best]:q.ResPtr[best+1]])
			ss.setRows(p.cutRows, q.PreRows[q.PrePtr[best]:q.PrePtr[best+1]])
		}
		idx, val := st.consumeResidual(best)
		if err := ix.SolveLower(idx, val, w); err != nil {
			return err
		}
		// One U^{-1} row dot per row, a cut row's from the part's packed
		// copy, as in process; the cut rows are among the rows, in order.
		n, cutUpper, k := len(rep.Vals), p.cutRowsUpper(ix), 0
		rep.Vals = slices.Grow(rep.Vals, len(ss.rows))[:n+len(ss.rows)]
		for i, lv := range ss.rows {
			if k < len(p.cutRows) && p.cutRows[k] == lv {
				rep.Vals[n+i] = cutUpper.Dot(k, w.W)
				k++
			} else {
				rep.Vals[n+i] = ix.UpperDot(lv, w)
			}
		}
		w.Reset()
		rep.Steps = append(rep.Steps, best)
		rep.Ptr = append(rep.Ptr, len(rep.Vals))
		st.scatterRun(p, ss.rows, rep.Vals[n:], q.Served)
	}
	return nil
}

// pendingAdd is one scatter contribution m to local row lv of shard si,
// a shard a worker serves but whose residual its run has not built.
type pendingAdd struct {
	si, lv int
	m      float64
}

// scatterRun is a worker run's cut scatter of one solve's values out at
// rows: fold's, less the values only the coordinator accumulates, and
// with each residual built only when the run first solves its shard.
// Every destination's mass takes each contribution at once, as pick
// needs; a residual the run has built takes it too (addRes); a served
// shard's unbuilt one defers it, in order, to buildRes; a shard the
// worker does not serve keeps only its mass. The bits are the
// coordinator's: the same rounded products, added in the same order to
// each mass and each residual entry.
//
//kdash:deterministic
func (st *pushState) scatterRun(p *part, rows []int, out []float64, served []int) {
	k := 0 // cursor into the cut rows, which rows lists in order
	for i, lv := range rows {
		if k == len(p.cutRows) || p.cutRows[k] != lv {
			continue
		}
		if yv := out[i]; yv != 0 {
			for _, e := range p.rowCuts(k) {
				si, m := int(e.dstShard), float64(e.w*yv)
				if st.res[si] != nil {
					st.addRes(si, int(e.dst), m)
					continue
				}
				st.resMass[si] += m
				if _, ok := slices.BinarySearch(served, si); ok {
					st.pend = append(st.pend, pendingAdd{si: si, lv: int(e.dst), m: m})
				}
			}
		}
		k++
	}
}

// buildRes builds served shard si's residual when a worker's run first
// solves it: the request's entries (idx ascending, val positive), then
// the contributions the run deferred for it, in order — the additions
// the coordinator made to the same entries, in its order. The shard's
// mass already holds them all.
func (st *pushState) buildRes(si int, idx []int, val []float64) {
	r := st.sx.getVector()
	st.res[si] = r
	for k, lv := range idx {
		r.W[lv] = val[k]
		r.Sup = append(r.Sup, lv)
	}
	for _, a := range st.pend {
		if a.si == si {
			if r.W[a.lv] == 0 {
				r.Sup = append(r.Sup, a.lv)
			}
			r.W[a.lv] += a.m
		}
	}
}

// checkRun validates a run request against the index: served shards
// distinct, ascending and in range; one finite, non-negative mass per
// shard; a finite, non-negative tolerance and budget; and per shard,
// residual ids strictly ascending within the shard's solve dimension
// with finite positive values, and prefix rows strictly ascending among
// its owned rows.
func (sx *ShardedIndex) checkRun(q *rpc.RunRowsRequest) error {
	s := len(sx.parts)
	if len(q.Served) == 0 {
		return fmt.Errorf("shard: run serves no shard")
	}
	for j, si := range q.Served {
		if si < 0 || si >= s || (j > 0 && si <= q.Served[j-1]) {
			return fmt.Errorf("shard: run serves shard %d, not ascending within [0,%d)", si, s)
		}
	}
	if len(q.Mass) != s {
		return fmt.Errorf("shard: run carries %d masses for %d shards", len(q.Mass), s)
	}
	for si, m := range q.Mass {
		if !(m >= 0) || math.IsInf(m, 1) {
			return fmt.Errorf("shard: run mass %v of shard %d is not finite and non-negative", m, si)
		}
	}
	if !(q.Tol >= 0) || math.IsInf(q.Tol, 1) || q.Budget < 0 {
		return fmt.Errorf("shard: run tolerance %v or budget %d out of range", q.Tol, q.Budget)
	}
	if len(q.ResPtr) != s+1 || len(q.PrePtr) != s+1 || len(q.ResIdx) != len(q.ResVal) {
		return fmt.Errorf("shard: malformed run request (%d shards, %d+%d pointers)", s, len(q.ResPtr), len(q.PrePtr))
	}
	ascending := func(ids []int, lim int) bool {
		prev := -1
		for _, v := range ids {
			if v <= prev || v >= lim {
				return false
			}
			prev = v
		}
		return true
	}
	for si := range sx.parts {
		lo, hi := q.ResPtr[si], q.ResPtr[si+1]
		if lo < 0 || hi < lo || hi > len(q.ResIdx) || !ascending(q.ResIdx[lo:hi], sx.PartLen(si)) {
			return fmt.Errorf("shard: run residual of shard %d is not ascending within its %d rows", si, sx.PartLen(si))
		}
		for _, v := range q.ResVal[lo:hi] {
			if !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("shard: run residual value %v of shard %d is not finite and positive", v, si)
			}
		}
		lo, hi = q.PrePtr[si], q.PrePtr[si+1]
		if lo < 0 || hi < lo || hi > len(q.PreRows) || !ascending(q.PreRows[lo:hi], len(sx.parts[si].nodes)) {
			return fmt.Errorf("shard: run prefix rows of shard %d are not ascending within its %d owned rows", si, len(sx.parts[si].nodes))
		}
	}
	return nil
}
