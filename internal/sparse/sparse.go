// Package sparse provides compressed sparse row/column matrices and the
// small set of operations the K-dash reproduction needs: construction from
// triplets, conversion between row and column form, and a matrix-vector
// product. The functions marked //kdash:testonly are references the tests
// compare the engine's own forms against.
//
// All matrices hold float64 values, int32 row and column indices and
// int pointer arrays: a dimension fits in 32 bits (MaxDim), while an
// entry count may not. Within each row (CSR) or column (CSC) the indices
// are kept sorted and unique; the constructors take care of sorting and
// of summing duplicate entries.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// MaxDim is the largest row or column count a matrix can have: its
// indices are stored as int32.
const MaxDim = math.MaxInt32

// Triplet is a single (row, col, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO accumulates coordinate-format entries before compression.
// Duplicate coordinates are summed during compression.
type COO struct {
	rows, cols int
	entries    []Triplet
}

// NewCOO returns an empty coordinate-format accumulator of the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 || rows > MaxDim || cols > MaxDim {
		panic(fmt.Sprintf("sparse: dimension %dx%d outside [0,%d]", rows, cols, MaxDim))
	}
	return &COO{rows: rows, cols: cols}
}

// Add records entry (r, c) = v. Adding to an existing coordinate
// accumulates. Zero values are kept (they are removed at compression).
func (m *COO) Add(r, c int, v float64) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", r, c, m.rows, m.cols))
	}
	m.entries = append(m.entries, Triplet{r, c, v})
}

// ToCSR compresses the accumulated entries into row-major form.
func (m *COO) ToCSR() *CSR {
	ent := slices.Clone(m.entries)
	slices.SortFunc(ent, func(x, y Triplet) int {
		if c := cmp.Compare(x.Row, y.Row); c != 0 {
			return c
		}
		return cmp.Compare(x.Col, y.Col)
	})
	c := &CSR{Rows: m.rows, Cols: m.cols, RowPtr: make([]int, m.rows+1)}
	for i := 0; i < len(ent); {
		j := i
		v := 0.0
		for j < len(ent) && ent[j].Row == ent[i].Row && ent[j].Col == ent[i].Col {
			v += ent[j].Val
			j++
		}
		if v != 0 {
			c.ColIdx = append(c.ColIdx, int32(ent[i].Col))
			c.Val = append(c.Val, v)
			c.RowPtr[ent[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < m.rows; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}

// ToCSC compresses the accumulated entries into column-major form.
func (m *COO) ToCSC() *CSC {
	return m.ToCSR().ToCSC()
}

// CSR is a compressed sparse row matrix. Row r occupies
// ColIdx[RowPtr[r]:RowPtr[r+1]] / Val[RowPtr[r]:RowPtr[r+1]], with column
// indices sorted ascending and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int32
	Val        []float64
}

// CSC is a compressed sparse column matrix. Column c occupies
// RowIdx[ColPtr[c]:ColPtr[c+1]] / Val[ColPtr[c]:ColPtr[c+1]], with row
// indices sorted ascending and unique.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int32
	Val        []float64
}

// NNZ reports the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// ToCSC converts to column-major form (counting sort on columns).
func (m *CSR) ToCSC() *CSC {
	out := &CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: make([]int, m.Cols+1)}
	out.RowIdx = make([]int32, len(m.Val))
	out.Val = make([]float64, len(m.Val))
	for _, c := range m.ColIdx {
		out.ColPtr[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		out.ColPtr[c+1] += out.ColPtr[c]
	}
	next := make([]int, m.Cols)
	copy(next, out.ColPtr[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			c := m.ColIdx[i]
			out.RowIdx[next[c]] = int32(r)
			out.Val[next[c]] = m.Val[i]
			next[c]++
		}
	}
	return out
}

// ToCSR converts to row-major form.
//
//kdash:testonly
func (m *CSC) ToCSR() *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	out.ColIdx = make([]int32, len(m.Val))
	out.Val = make([]float64, len(m.Val))
	for _, r := range m.RowIdx {
		out.RowPtr[r+1]++
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	next := make([]int, m.Rows)
	copy(next, out.RowPtr[:m.Rows])
	for c := 0; c < m.Cols; c++ {
		for i := m.ColPtr[c]; i < m.ColPtr[c+1]; i++ {
			r := m.RowIdx[i]
			out.ColIdx[next[r]] = int32(c)
			out.Val[next[r]] = m.Val[i]
			next[r]++
		}
	}
	return out
}

// MulVecTo computes y = M x into a caller-provided slice, avoiding
// allocation on hot query paths. y must have length m.Rows.
func (m *CSC) MulVecTo(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecTo dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for c := 0; c < m.Cols; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		for i := m.ColPtr[c]; i < m.ColPtr[c+1]; i++ {
			y[m.RowIdx[i]] += m.Val[i] * xc
		}
	}
}

// PermuteSym returns P M P^T where the permutation maps old index i to new
// index perm[i]. Row r and column c of the result hold the entry that was
// at (oldRow, oldCol) with perm[oldRow] = r, perm[oldCol] = c.
//
//kdash:testonly
func (m *CSC) PermuteSym(perm []int) *CSC {
	if len(perm) != m.Rows || m.Rows != m.Cols {
		panic("sparse: PermuteSym requires square matrix and full permutation")
	}
	// Two counting transposes instead of a sort: ToCSR buckets the
	// entries by their new row (it does not need a column's rows
	// ordered), and ToCSC's row-by-row sweep then hands every new column
	// its rows ascending.
	rows := make([]int32, len(m.RowIdx))
	for i, r := range m.RowIdx {
		rows[i] = int32(perm[r])
	}
	byRow := (&CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: m.ColPtr, RowIdx: rows, Val: m.Val}).ToCSR()
	for i, c := range byRow.ColIdx {
		byRow.ColIdx[i] = int32(perm[c])
	}
	return byRow.ToCSC()
}

// ChangedColumns reports, per column, whether m's column differs from
// prev's column of the same index in its pattern or in any value's bits.
// The matrices must have the same shape.
//
//kdash:testonly
func (m *CSC) ChangedColumns(prev *CSC) []bool {
	if m.Rows != prev.Rows || m.Cols != prev.Cols {
		panic("sparse: ChangedColumns shape mismatch")
	}
	out := make([]bool, m.Cols)
	for c := range out {
		lo, hi := m.ColPtr[c], m.ColPtr[c+1]
		plo, phi := prev.ColPtr[c], prev.ColPtr[c+1]
		if hi-lo != phi-plo {
			out[c] = true
			continue
		}
		for k := 0; k < hi-lo; k++ {
			if m.RowIdx[lo+k] != prev.RowIdx[plo+k] || math.Float64bits(m.Val[lo+k]) != math.Float64bits(prev.Val[plo+k]) {
				out[c] = true
				break
			}
		}
	}
	return out
}

// ColMax returns, for each column c, the maximum entry value in that
// column (0 for an empty column): the paper's Amax(u) table, which the
// engine derives from the graph's rows instead.
//
//kdash:testonly
func (m *CSC) ColMax() []float64 {
	out := make([]float64, m.Cols)
	for c := 0; c < m.Cols; c++ {
		for i := m.ColPtr[c]; i < m.ColPtr[c+1]; i++ {
			if m.Val[i] > out[c] {
				out[c] = m.Val[i]
			}
		}
	}
	return out
}

// Max returns the maximum entry value in the matrix (0 if empty).
//
//kdash:testonly
func (m *CSC) Max() float64 {
	max := 0.0
	for _, v := range m.Val {
		if v > max {
			max = v
		}
	}
	return max
}
