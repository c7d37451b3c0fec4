package lu

// The split solve: the one solve primitive a query runs. A proximity is
// one row–column product of the two stored inverse forms, so a solve
// splits at its natural seam: SolveLower runs the L^{-1} pass of a
// sparse right-hand side into a Workspace, and UpperRowDot then answers
// any single row of the solution with one U^{-1} row dot — the paper's
// proximity computation. A caller pays for exactly the rows it reads;
// nothing applies a whole U^{-1} on the query path. Workspaces are
// recycled across calls and cleared by support list (never by
// full-vector zeroing), so a steady-state solve allocates nothing.

// Workspace holds the L^{-1} pass of one solve, W = L^{-1} r over the
// factors' internal rows: dense for O(1) lookups, live only on Sup (rows
// in first-touch order: zero off Sup, so a zero entry marks a first
// touch, and a row that cancels to zero may be listed twice). Reset
// spot-cleans it for reuse.
type Workspace struct {
	W   []float64
	Sup []int
}

// NewWorkspace returns an empty workspace sized for the factors.
func (inv *Inverse) NewWorkspace() *Workspace {
	// Sup is non-nil even when empty, like every support list here.
	return &Workspace{W: make([]float64, inv.N), Sup: make([]int, 0, 64)}
}

// Reset restores the all-zero workspace by its support list.
//
//kdash:noalloc
func (w *Workspace) Reset() {
	for _, r := range w.Sup {
		w.W[r] = 0
	}
	w.Sup = w.Sup[:0]
}

// SolveLower accumulates W += L^{-1} r into w for the sparse right-hand
// side given as parallel (idx, val) slices over the caller's ids, in
// the given order (the dense reference's accumulation order when the
// ids ascend), appending every row first reached to w.Sup. perm maps
// each caller id to its internal row: entry t reads column
// perm[idx[t]]. Zero values cost nothing.
//
//kdash:noalloc
//kdash:deterministic
func (inv *Inverse) SolveLower(w *Workspace, idx []int, val []float64, perm []int32) {
	ws, wsup := w.W, w.Sup
	lp, lr, lval := inv.Linv.ColPtr, inv.Linv.RowIdx, inv.Linv.Val
	for t, u := range idx {
		v := val[t]
		if v == 0 {
			continue
		}
		j := perm[u]
		for p := lp[j]; p < lp[j+1]; p++ {
			r := lr[p]
			if ws[r] == 0 {
				wsup = append(wsup, int(r))
			}
			ws[r] += v * lval[p]
		}
	}
	w.Sup = wsup
}

// UpperRowDot returns (U^{-1} row u) . w for internal row u, accumulated
// in the row's stored (ascending column) order: bit for bit row u of
// Inverse.Solve on the same right-hand side, which forms the same
// products in the same order.
//
//kdash:noalloc
//kdash:deterministic
func (inv *Inverse) UpperRowDot(u int, w []float64) float64 {
	up := inv.Uinv.RowPtr
	lo, hi := up[u], up[u+1]
	return rowDot(inv.Uinv.ColIdx[lo:hi], inv.Uinv.Val[lo:hi], w)
}

// rowDot accumulates vals[k] * w[cols[k]] in ascending k.
//
//kdash:noalloc
//kdash:deterministic
func rowDot(cols []int32, vals, w []float64) float64 {
	vals = vals[:len(cols)] // hint: drops the vals[k] bounds check
	acc := 0.0
	for k, c := range cols {
		acc += vals[k] * w[c]
	}
	return acc
}

// UpperRows is a packed copy of selected rows of U^{-1}, laid out one
// after the other in fresh memory, for a caller that dots the same few
// rows against every solve: wherever the rows sit in the factor, their
// dots read one contiguous span.
type UpperRows struct {
	ptr  []int
	cols []int32
	vals []float64
}

// PackUpperRows copies U^{-1}'s internal rows us, in the given order.
func (inv *Inverse) PackUpperRows(us []int) *UpperRows {
	up := inv.Uinv.RowPtr
	r := &UpperRows{ptr: make([]int, len(us)+1)}
	for k, u := range us {
		r.ptr[k+1] = r.ptr[k] + up[u+1] - up[u]
	}
	r.cols = make([]int32, 0, r.ptr[len(us)])
	r.vals = make([]float64, 0, r.ptr[len(us)])
	for _, u := range us {
		r.cols = append(r.cols, inv.Uinv.ColIdx[up[u]:up[u+1]]...)
		r.vals = append(r.vals, inv.Uinv.Val[up[u]:up[u+1]]...)
	}
	return r
}

// Dot returns the k-th packed row's dot with w: bit for bit
// UpperRowDot of the row it copies.
//
//kdash:noalloc
//kdash:deterministic
func (r *UpperRows) Dot(k int, w []float64) float64 {
	lo, hi := r.ptr[k], r.ptr[k+1]
	return rowDot(r.cols[lo:hi], r.vals[lo:hi], w)
}
