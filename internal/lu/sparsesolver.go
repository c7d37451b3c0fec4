package lu

// Single-lane sparse triangular-inverse solver: the support-tracked
// counterpart of Inverse.Solve. A right-hand side with few nonzeros
// reaches few rows of L^{-1}, and when that reach is small the U^{-1}
// apply can run as a column scatter over exactly the reached rows
// (through the lazily transposed factor) instead of sweeping every
// stored row entry — so a solve costs work proportional to the factor
// entries its support actually touches, the proportionality the paper's
// precomputed-inverse design promises. Workspaces are recycled across
// calls and cleared by support list (never by full-vector zeroing), so a
// steady-state solve allocates nothing.
//
// A solve also splits at its natural seam: SolveLower runs only the
// L^{-1} pass into a Workspace, and UpperRowDot then answers any single
// row of the solution with one U^{-1} row dot — the paper's proximity
// computation, and what a caller that reads a few rows of the solution
// pays instead of a whole U^{-1} apply. SparseSolver.ApplyUpper
// completes the whole solution from the same workspace.

import (
	"sort"

	"kdash/internal/sparse"
)

// UinvByColumn returns U^{-1} transposed to column-major form, built
// lazily once and immutable afterwards. Column form is what a
// support-driven apply needs: the contribution of workspace row j to the
// solution is column j of U^{-1}. The row indices are rewritten through
// Remap once here, so the column scatter lands every entry directly in
// the caller's id domain with no per-entry mapping.
func (inv *Inverse) UinvByColumn() *sparse.CSC {
	inv.uinvColOnce.Do(func() {
		col := inv.Uinv.ToCSC()
		if inv.Remap != nil {
			for p, r := range col.RowIdx {
				col.RowIdx[p] = inv.Remap[r]
			}
		}
		inv.uinvCol = col
	})
	return inv.uinvCol
}

// uinvColSizes returns per-column entry counts of U^{-1} — the only
// piece of the transpose the scatter-vs-sweep decision needs. Counting
// is one O(nnz) pass and n ints, far cheaper than materialising the
// transposed factor, which matters for indexes whose solves always take
// the sweep (a monolithic index never pays for a transpose it never
// scatters through).
func (inv *Inverse) uinvColSizes() []int {
	inv.uinvColSizeOnce.Do(func() {
		counts := make([]int, inv.N)
		for _, c := range inv.Uinv.ColIdx {
			counts[c]++
		}
		inv.uinvColSize = counts
	})
	return inv.uinvColSize
}

// preferFlagScan reports whether re-deriving an ascending support of w
// rows out of n mark flags (one O(n) scan) beats sorting the unordered
// support list (O(w log w)): only when the support is a sizable fraction
// of the matrix.
func preferFlagScan(w, n int) bool {
	return w >= 64 && n/w < 16
}

// Workspace holds the L^{-1} pass of one solve, W = L^{-1} r over the
// factors' internal rows: dense for O(1) lookups, live only on Sup (rows
// in first-touch order). Reset spot-cleans it for reuse.
type Workspace struct {
	W    []float64
	Sup  []int
	mark []bool
}

// NewWorkspace returns an empty workspace sized for the factors.
func (inv *Inverse) NewWorkspace() *Workspace {
	// Sup is non-nil even when empty, like every support list here.
	return &Workspace{W: make([]float64, inv.N), Sup: make([]int, 0, 64), mark: make([]bool, inv.N)}
}

// Reset restores the all-zero workspace by its support list.
//
//kdash:noalloc
func (w *Workspace) Reset() {
	for _, r := range w.Sup {
		w.W[r] = 0
		w.mark[r] = false
	}
	w.Sup = w.Sup[:0]
}

// SolveLower accumulates W += L^{-1} r into w for the sparse right-hand
// side given as parallel (idx, val) slices over internal rows, in the
// given order (ascending indices match the dense reference's
// accumulation order), appending every row first reached to w.Sup.
//
//kdash:noalloc
//kdash:deterministic
func (inv *Inverse) SolveLower(w *Workspace, idx []int, val []float64) {
	ws, wmark := w.W, w.mark
	wsup := w.Sup
	lp, lr, lval := inv.Linv.ColPtr, inv.Linv.RowIdx, inv.Linv.Val
	for t, j := range idx {
		v := val[t]
		if v == 0 {
			continue
		}
		for p := lp[j]; p < lp[j+1]; p++ {
			r := lr[p]
			if !wmark[r] {
				wmark[r] = true
				wsup = append(wsup, r)
			}
			ws[r] += v * lval[p]
		}
	}
	w.Sup = wsup
}

// UpperRowDot returns (U^{-1} row u) . w for internal row u, accumulated
// in the row's stored (ascending column) order: bit for bit the value
// every U^{-1} apply writes at u's output row, since the column scatter
// adds the same products in the same column order and a column outside
// the workspace's support contributes an exact zero.
//
//kdash:noalloc
//kdash:deterministic
func (inv *Inverse) UpperRowDot(u int, w []float64) float64 {
	up := inv.Uinv.RowPtr
	lo, hi := up[u], up[u+1]
	cols := inv.Uinv.ColIdx[lo:hi]
	vals := inv.Uinv.Val[lo:hi]
	vals = vals[:len(cols)] // hint: drops the vals[k] bounds check
	acc := 0.0
	for k, c := range cols {
		acc += vals[k] * w[c]
	}
	return acc
}

// SparseSolver computes x = U^{-1} L^{-1} r for sparse right-hand sides
// against one Inverse, tracking the support of every intermediate so no
// full-length vector is ever allocated, zeroed or swept per solve. Not
// safe for concurrent use; callers pool instances.
type SparseSolver struct {
	inv *Inverse

	lw *Workspace // Solve's L^{-1} pass, clean between calls

	out    []float64 // solution, live only on osup (or everywhere after a dense apply)
	omark  []bool
	osup   []int
	odense bool // last apply wrote every row of out
}

// NewSparseSolver returns a reusable single-lane solver. Workspaces are
// allocated on first use and recycled across calls.
func (inv *Inverse) NewSparseSolver() *SparseSolver {
	return &SparseSolver{inv: inv}
}

// Solve computes x = U^{-1} L^{-1} r for the sparse right-hand side given
// as parallel (idx, val) slices, accumulating entries in the given order
// (pass indices ascending to match the dense reference exactly; values
// are then bit-identical to Inverse.Solve's). It returns
// the solution and its support: the rows written by this call, unordered.
// Rows outside the support hold stale values from earlier calls — not
// zeros — so callers must restrict reads to the support. A nil support
// means every row was written. Both slices are valid only until the next
// Solve or ApplyUpper call.
func (s *SparseSolver) Solve(idx []int, val []float64) ([]float64, []int) {
	if s.lw == nil {
		s.lw = s.inv.NewWorkspace()
	}
	s.inv.SolveLower(s.lw, idx, val)
	y, sup := s.ApplyUpper(s.lw)
	s.lw.Reset()
	return y, sup
}

// ApplyUpper completes a solve whose L^{-1} pass w holds: x = U^{-1} w,
// returned under Solve's contract (support, staleness, validity). w is
// left as it was, up to the order of its support list.
func (s *SparseSolver) ApplyUpper(w *Workspace) ([]float64, []int) {
	inv := s.inv
	n := inv.N
	if s.out == nil {
		s.out = make([]float64, n)
		s.omark = make([]bool, n)
		// Non-nil even when empty: a nil support means "dense", and an
		// empty solve's support is empty, not dense.
		s.osup = make([]int, 0, 64)
	}
	// Reclaim the previous call's output now that the caller is done with
	// it: spot-clean exactly the rows it wrote.
	if s.odense {
		clear(s.out)
		s.odense = false
	} else {
		for _, r := range s.osup {
			s.out[r] = 0
			s.omark[r] = false
		}
	}
	s.osup = s.osup[:0]

	// How many U^{-1} entries a column scatter over the reached rows
	// would touch. Only the per-column sizes are needed here; the
	// transposed factor itself is materialised the first time a scatter
	// is actually taken.
	colSize := inv.uinvColSizes()
	scatterEntries := 0
	for _, r := range w.Sup {
		scatterEntries += colSize[r]
	}

	// Pick the cheaper U^{-1} apply: the scatter pays the support's
	// column entries plus ordering and output bookkeeping, the sweep pays
	// every stored entry.
	var sup []int
	if scatterEntries+2*len(w.Sup) < inv.Uinv.NNZ() {
		sup = s.applyUpperScatter(w, inv.UinvByColumn())
	} else {
		s.applyUpperSweep(w)
		s.odense = true
	}
	return s.out, sup
}

// sortedSupport puts w's support in ascending row order, the column
// order the scatter must walk; a small solve against a large factor
// must not pay an O(n) sweep here.
func (s *SparseSolver) sortedSupport(w *Workspace) []int {
	if n := s.inv.N; preferFlagScan(len(w.Sup), n) {
		sup := w.Sup[:0]
		for r := 0; r < n; r++ {
			if w.mark[r] {
				sup = append(sup, r)
			}
		}
		w.Sup = sup
	} else {
		sort.Ints(w.Sup)
	}
	return w.Sup
}

// applyUpperScatter accumulates out += w[j] * (U^{-1} column j) over the
// workspace support in ascending column order — the same per-row
// summation order as the row sweep, so the two applies are bit-identical
// on every written row. uCol's rows carry Remap already (UinvByColumn),
// so entries land in the caller's id domain as the sweep's do. Returns
// the rows written.
func (s *SparseSolver) applyUpperScatter(w *Workspace, uCol *sparse.CSC) []int {
	out, omark, osup := s.out, s.omark, s.osup[:0]
	for _, j := range s.sortedSupport(w) {
		x := w.W[j]
		lo, hi := uCol.ColPtr[j], uCol.ColPtr[j+1]
		rows := uCol.RowIdx[lo:hi]
		vals := uCol.Val[lo:hi]
		vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
		for k, r := range rows {
			if !omark[r] {
				omark[r] = true
				osup = append(osup, r)
			}
			out[r] += vals[k] * x
		}
	}
	s.osup = osup
	return osup
}

// applyUpperSweep computes out[u] = (U^{-1} row u) . w for every row,
// the dense fallback for solves whose support reaches most of the
// factor. Rows are assigned, not accumulated, so no prior clearing is
// needed. Remap redirects each assignment to the caller's id domain, as
// the transposed factor's baked rows do for the scatter.
func (s *SparseSolver) applyUpperSweep(w *Workspace) {
	inv := s.inv
	remap := inv.Remap
	for u := 0; u < inv.N; u++ {
		d := u
		if remap != nil {
			d = remap[u]
		}
		s.out[d] = inv.UpperRowDot(u, w.W)
	}
}
