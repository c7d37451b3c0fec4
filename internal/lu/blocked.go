package lu

// Blocked column-strip storage for the inverse factors: the layout the
// internal/lu/kernels scatter kernels consume. Each column's entries
// are padded to a multiple of kernels.Width with entries that point at
// a dedicated trash row (index N, value 0), so a kernel can process a
// column in whole 4-wide lanes with no tail loop and no bounds checks.
// Offsets hold both the padded strip bounds (ColPtr, what the kernels
// iterate) and the true entry counts (ColCnt, what bookkeeping passes
// iterate), and indices are int32 — half the index bandwidth of the
// []int factors, which matters as much as the vector lanes on a
// load-bound scatter.

import (
	"fmt"
	"math"

	"kdash/internal/lu/kernels"
	"kdash/internal/sparse"
)

// BlockedCSC is a column-major factor in blocked strip form. Column j's
// true entries are Rows[ColPtr[j]:ColPtr[j]+ColCnt[j]] (parallel Vals),
// and its padded strip — what the SIMD kernels walk — runs to
// ColPtr[j+1]. Destination vectors must have N+1 slots: slot N is the
// trash row the padding entries land in.
type BlockedCSC struct {
	// N is the column count and the destination-domain size; row
	// indices lie in [0, N], with N the trash row.
	N int
	// All four strips are immutable after construction; under -mmap
	// they alias a PROT_READ file mapping.
	//
	//kdash:readonly
	ColPtr []int32 // padded strip offsets, len N+1, each strip a multiple of kernels.Width
	//kdash:readonly
	ColCnt []int32 // true entry counts per column, len N
	//kdash:readonly
	Rows []int32 // row indices; padding entries hold N
	//kdash:readonly
	Vals []float64 // values; padding entries hold 0
}

// NNZ reports the padded entry count (the stored size, not the
// mathematical nonzero count — that is the sum of ColCnt).
func (b *BlockedCSC) NNZ() int { return len(b.Rows) }

// BlockFromCSC converts a column-major factor to blocked strip form.
// remap, if non-nil, is a permutation applied to every row index — the
// caller's output-domain mapping baked into the layout so the scatter
// lands directly in caller ids. Returns nil when the padded layout
// would overflow int32 indexing; callers keep the scalar path then.
//
//kdash:mutates-factors
func BlockFromCSC(m *sparse.CSC, remap []int) *BlockedCSC {
	n := m.Cols
	if n >= math.MaxInt32 {
		return nil
	}
	padded := 0
	for j := 0; j < n; j++ {
		padded += kernels.Pad(m.ColPtr[j+1] - m.ColPtr[j])
	}
	if padded > math.MaxInt32 {
		return nil
	}
	b := &BlockedCSC{
		N:      n,
		ColPtr: make([]int32, n+1),
		ColCnt: make([]int32, n),
		Rows:   make([]int32, padded),
		Vals:   make([]float64, padded),
	}
	at := int32(0)
	for j := 0; j < n; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		b.ColPtr[j] = at
		b.ColCnt[j] = int32(hi - lo)
		for p := lo; p < hi; p++ {
			r := m.RowIdx[p]
			if remap != nil {
				r = remap[r]
			}
			b.Rows[at] = int32(r)
			b.Vals[at] = m.Val[p]
			at++
		}
		for k := hi - lo; k%kernels.Width != 0; k++ {
			b.Rows[at] = int32(n) // trash row, value 0
			at++
		}
	}
	b.ColPtr[n] = at
	return b
}

// Validate bounds-checks a blocked factor that was not built by this
// process — the deep check copy-mode index loads run so a corrupt file
// surfaces as an error at load time rather than a panic at first use.
func (b *BlockedCSC) Validate() error { return b.validate() }

// validate bounds-checks a blocked factor that was not built by this
// process (an mmap-loaded strip): the assembly kernels trust row
// indices without checking, so a corrupt file must be rejected before
// the first kernel call, not segfault inside one. One O(nnz) pass,
// run once per loaded strip.
func (b *BlockedCSC) validate() error {
	if len(b.ColPtr) != b.N+1 || len(b.ColCnt) != b.N {
		return fmt.Errorf("blocked factor: offset shapes %d/%d for n=%d", len(b.ColPtr), len(b.ColCnt), b.N)
	}
	if len(b.Rows) != len(b.Vals) {
		return fmt.Errorf("blocked factor: %d rows vs %d vals", len(b.Rows), len(b.Vals))
	}
	if b.N > 0 && b.ColPtr[0] != 0 {
		return fmt.Errorf("blocked factor: first offset %d", b.ColPtr[0])
	}
	if int(b.ColPtr[b.N]) != len(b.Rows) {
		return fmt.Errorf("blocked factor: final offset %d for %d entries", b.ColPtr[b.N], len(b.Rows))
	}
	trash := int32(b.N)
	for j := 0; j < b.N; j++ {
		lo, hi := b.ColPtr[j], b.ColPtr[j+1]
		w := hi - lo
		if w < 0 || w%kernels.Width != 0 {
			return fmt.Errorf("blocked factor: column %d strip width %d", j, w)
		}
		cnt := b.ColCnt[j]
		if cnt < 0 || cnt > w || w-cnt >= kernels.Width {
			return fmt.Errorf("blocked factor: column %d count %d in strip %d", j, cnt, w)
		}
		for p := lo; p < lo+cnt; p++ {
			if r := b.Rows[p]; r < 0 || r > trash {
				return fmt.Errorf("blocked factor: row %d out of range at entry %d", r, p)
			}
		}
		for p := lo + cnt; p < hi; p++ {
			if b.Rows[p] != trash || b.Vals[p] != 0 {
				return fmt.Errorf("blocked factor: bad padding at entry %d", p)
			}
		}
	}
	return nil
}
