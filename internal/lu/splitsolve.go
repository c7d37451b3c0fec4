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

// NewWorkspace returns an empty workspace over n rows. It serves any
// factors of at most n rows: every kernel indexes it below its own N.
func NewWorkspace(n int) *Workspace {
	// Sup is non-nil even when empty, like every support list here.
	return &Workspace{W: make([]float64, n), Sup: make([]int, 0, 64)}
}

// NewWorkspace returns an empty workspace sized for the factors.
func (inv *Inverse) NewWorkspace() *Workspace { return NewWorkspace(inv.N) }

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
// perm[idx[t]], the implicit unit diagonal first — v, which is v*1
// bit for bit — and then the stored rows. Zero values cost nothing.
//
//kdash:noalloc
//kdash:deterministic
func (inv *Inverse) SolveLower(w *Workspace, idx []int, val []float64, perm []int32) {
	ws, wsup := w.W, w.Sup
	l := inv.Linv
	for t, u := range idx {
		v := val[t]
		if v == 0 {
			continue
		}
		j := int(perm[u])
		if ws[j] == 0 {
			wsup = append(wsup, j)
		}
		ws[j] += v
		lo, hi := l.Ptr[j], l.Ptr[j+1]
		gaps, vals := l.Gap[lo:hi], l.Val[lo:hi]
		vals = vals[:len(gaps)] // hint: drops the vals[k] bounds check
		r, e := j-1, l.EscPtr[j]
		for k, g := range gaps {
			if g != 0 {
				r += int(g)
			} else {
				r, e = int(l.Esc[e]), e+1
			}
			if ws[r] == 0 {
				wsup = append(wsup, r)
			}
			ws[r] += v * vals[k]
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
	up := inv.Uinv
	lo, hi := up.Ptr[u], up.Ptr[u+1]
	gaps, vals := up.Gap[lo:hi], up.Val[lo:hi]
	vals = vals[:len(gaps)] // hint: drops the vals[k] bounds check
	c, e := u-1, up.EscPtr[u]
	acc := 0.0
	for k, g := range gaps {
		if g != 0 {
			c += int(g)
		} else {
			c, e = int(up.Esc[e]), e+1
		}
		acc += vals[k] * w[c]
	}
	return acc
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
// after the other in fresh memory with plain int32 ids, for a caller
// that dots the same few rows against every solve: wherever the rows sit
// in the factor, their dots read one contiguous span and decode nothing.
type UpperRows struct {
	ptr  []int
	cols []int32
	vals []float64
}

// PackUpperRows copies U^{-1}'s internal rows us, in the given order,
// decoding their ids.
func (inv *Inverse) PackUpperRows(us []int) *UpperRows {
	up := inv.Uinv
	r := &UpperRows{ptr: make([]int, len(us)+1)}
	for k, u := range us {
		r.ptr[k+1] = r.ptr[k] + int(up.Ptr[u+1]-up.Ptr[u])
	}
	r.cols = make([]int32, 0, r.ptr[len(us)])
	r.vals = make([]float64, 0, r.ptr[len(us)])
	var line []int
	for _, u := range us {
		line = up.Line(u, line[:0])
		for _, c := range line {
			r.cols = append(r.cols, int32(c))
		}
		r.vals = append(r.vals, up.Val[up.Ptr[u]:up.Ptr[u+1]]...)
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
