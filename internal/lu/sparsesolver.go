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

import (
	"sort"

	"kdash/internal/lu/kernels"
	"kdash/internal/sparse"
)

// UinvByColumn returns U^{-1} transposed to column-major form, built
// lazily once and immutable afterwards. Column form is what a
// support-driven apply needs: the contribution of workspace row j to the
// solution is column j of U^{-1}.
func (inv *Inverse) UinvByColumn() *sparse.CSC {
	inv.uinvColOnce.Do(func() { inv.uinvCol = inv.Uinv.ToCSC() })
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

// SparseSolver computes x = U^{-1} L^{-1} r for sparse right-hand sides
// against one Inverse, tracking the support of every intermediate so no
// full-length vector is ever allocated, zeroed or swept per solve. Not
// safe for concurrent use; callers pool instances.
type SparseSolver struct {
	inv *Inverse

	ws    []float64 // L^{-1} r, live only on wsup
	wmark []bool
	wsup  []int

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
// Solve call.
func (s *SparseSolver) Solve(idx []int, val []float64) ([]float64, []int) {
	inv := s.inv
	n := inv.N
	if s.ws == nil {
		// One slot past n: the trash row the blocked kernels' padding
		// entries accumulate zeros into.
		s.ws = make([]float64, n+1)
		s.wmark = make([]bool, n)
		s.out = make([]float64, n+1)
		s.omark = make([]bool, n)
		// Non-nil even when empty: a nil support means "dense", and an
		// empty solve's support is empty, not dense.
		s.wsup = make([]int, 0, 64)
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

	// ws = L^{-1} r, accumulated column by column over the nonzero
	// right-hand side entries, recording which rows the solve reaches and
	// how many U^{-1} entries a column scatter over them would touch.
	// Only the per-column sizes are needed here; the transposed factor
	// itself is materialised the first time a scatter is actually taken.
	colSize := inv.uinvColSizes()
	blkL, blkU := inv.blocked()
	ws, wmark := s.ws, s.wmark
	wsup := s.wsup[:0]
	scatterEntries := 0
	if blkL != nil {
		// Blocked path: bookkeeping walks the true entries, the kernel
		// walks the padded strip. Marks first, then the accumulate —
		// per-entry order inside a column is unchanged, so the result
		// and the first-touch order of wsup match the scalar loop.
		bp, br, bv := blkL.ColPtr, blkL.Rows, blkL.Vals
		for t, j := range idx {
			v := val[t]
			if v == 0 {
				continue
			}
			lo, hi := bp[j], bp[j+1]
			cnt := blkL.ColCnt[j]
			if int(cnt) < kernels.MinEntries {
				// Short column: one fused pass beats a kernel call.
				rows := br[lo : lo+cnt]
				vals := bv[lo : lo+cnt]
				vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
				for k, r := range rows {
					if !wmark[r] {
						wmark[r] = true
						wsup = append(wsup, int(r))
						scatterEntries += colSize[r]
					}
					ws[r] += vals[k] * v
				}
				continue
			}
			for _, r := range br[lo : lo+cnt] {
				if !wmark[r] {
					wmark[r] = true
					wsup = append(wsup, int(r))
					scatterEntries += colSize[r]
				}
			}
			kernels.ScatterAXPY(ws, br[lo:hi], bv[lo:hi], v)
		}
	} else {
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
					scatterEntries += colSize[r]
				}
				ws[r] += v * lval[p]
			}
		}
	}
	s.wsup = wsup

	// Pick the cheaper U^{-1} apply: the scatter pays the support's
	// column entries plus ordering and output bookkeeping, the sweep pays
	// every stored entry.
	var sup []int
	if scatterEntries+2*len(wsup) < inv.Uinv.NNZ() {
		if blkU != nil {
			sup = s.applyUpperScatterBlocked(blkU)
		} else {
			sup = s.applyUpperScatter(inv.UinvByColumn())
		}
	} else {
		s.applyUpperSweep()
		s.odense = true
	}

	// Leave the workspace zero for the next call by support list.
	for _, r := range s.wsup {
		ws[r] = 0
		wmark[r] = false
	}
	ws[n] = 0 // trash row: padding wrote only zeros, but stay exact
	return s.out[:n], sup
}

// applyUpperScatter accumulates out += ws[j] * (U^{-1} column j) over the
// workspace support in ascending column order — the same per-row
// summation order as the row sweep, so the two applies are bit-identical
// on every written row. Returns the rows written.
func (s *SparseSolver) applyUpperScatter(uCol *sparse.CSC) []int {
	n := s.inv.N
	wsup := s.wsup
	// The scatter must walk columns ascending; a small solve against a
	// large factor must not pay an O(n) sweep here.
	if preferFlagScan(len(wsup), n) {
		wsup = wsup[:0]
		for r := 0; r < n; r++ {
			if s.wmark[r] {
				wsup = append(wsup, r)
			}
		}
		s.wsup = wsup
	} else {
		sort.Ints(wsup)
	}
	out, omark, osup := s.out, s.omark, s.osup[:0]
	// Honour a baked Remap here too (the blocked strips carry it
	// pre-applied; this scalar fallback applies it per entry), so both
	// scatter forms and the sweep agree on the output domain.
	remap := s.inv.Remap
	for _, j := range wsup {
		x := s.ws[j]
		lo, hi := uCol.ColPtr[j], uCol.ColPtr[j+1]
		rows := uCol.RowIdx[lo:hi]
		vals := uCol.Val[lo:hi]
		vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
		for k, r := range rows {
			if remap != nil {
				r = remap[r]
			}
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

// applyUpperScatterBlocked is applyUpperScatter over the blocked strip
// form: bookkeeping walks each column's true entries, the SIMD kernel
// walks the padded strip, and — when a Remap is baked in — rows land
// directly in the caller's id domain. Value arithmetic per written row
// is the same sequence as the scalar scatter, so the two are
// bit-identical.
func (s *SparseSolver) applyUpperScatterBlocked(b *BlockedCSC) []int {
	n := s.inv.N
	wsup := s.wsup
	// The scatter must walk columns ascending; a small solve against a
	// large factor must not pay an O(n) sweep here.
	if preferFlagScan(len(wsup), n) {
		wsup = wsup[:0]
		for r := 0; r < n; r++ {
			if s.wmark[r] {
				wsup = append(wsup, r)
			}
		}
		s.wsup = wsup
	} else {
		sort.Ints(wsup)
	}
	out, omark, osup := s.out, s.omark, s.osup[:0]
	bv := b.Vals
	for _, j := range wsup {
		x := s.ws[j]
		lo, hi := b.ColPtr[j], b.ColPtr[j+1]
		cnt := b.ColCnt[j]
		rows := b.Rows[lo : lo+cnt]
		if int(cnt) < kernels.MinEntries {
			// Short column: one fused pass beats a kernel call.
			vals := bv[lo : lo+cnt]
			vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
			for k, r := range rows {
				if !omark[r] {
					omark[r] = true
					osup = append(osup, int(r))
				}
				out[r] += vals[k] * x
			}
			continue
		}
		for _, r := range rows {
			if !omark[r] {
				omark[r] = true
				osup = append(osup, int(r))
			}
		}
		kernels.ScatterAXPY(out, b.Rows[lo:hi], bv[lo:hi], x)
	}
	s.osup = osup
	return osup
}

// applyUpperSweep computes out[u] = (U^{-1} row u) . ws for every row,
// the dense fallback for solves whose support reaches most of the
// factor. Rows are assigned, not accumulated, so no prior clearing is
// needed. A baked Remap redirects each assignment to the caller's id
// domain so both applies agree on where solutions live.
func (s *SparseSolver) applyUpperSweep() {
	inv := s.inv
	up, uc, uval := inv.Uinv.RowPtr, inv.Uinv.ColIdx, inv.Uinv.Val
	ws, out := s.ws, s.out
	remap := inv.Remap
	for u := 0; u < inv.N; u++ {
		acc := 0.0
		for p := up[u]; p < up[u+1]; p++ {
			acc += uval[p] * ws[uc[p]]
		}
		d := u
		if remap != nil {
			d = remap[u]
		}
		out[d] = acc
	}
}
