// Package sparse provides compressed sparse row/column matrices and the
// small set of operations the K-dash reproduction needs: construction from
// triplets, matrix-vector products, transposition, symmetric permutation,
// and dense conversion for tests.
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

// NNZ reports the number of accumulated (pre-compression) entries.
func (m *COO) NNZ() int { return len(m.entries) }

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
func (m *CSR) NNZ() int { return len(m.Val) }

// NNZ reports the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// At returns the (r, c) entry using binary search within the row.
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	i, found := slices.BinarySearch(m.ColIdx[lo:hi], int32(c))
	if found {
		return m.Val[lo+i]
	}
	return 0
}

// At returns the (r, c) entry using binary search within the column.
func (m *CSC) At(r, c int) float64 {
	lo, hi := m.ColPtr[c], m.ColPtr[c+1]
	i, found := slices.BinarySearch(m.RowIdx[lo:hi], int32(r))
	if found {
		return m.Val[lo+i]
	}
	return 0
}

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

// MulVec computes y = M x for a dense vector x. y is allocated.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			s += m.Val[i] * x[m.ColIdx[i]]
		}
		y[r] = s
	}
	return y
}

// MulVec computes y = M x for a dense vector x. y is allocated.
func (m *CSC) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for c := 0; c < m.Cols; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		for i := m.ColPtr[c]; i < m.ColPtr[c+1]; i++ {
			y[m.RowIdx[i]] += m.Val[i] * xc
		}
	}
	return y
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

// Transpose returns M^T in the same storage family.
func (m *CSR) Transpose() *CSR {
	t := m.ToCSC()
	return &CSR{Rows: t.Cols, Cols: t.Rows, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// Transpose returns M^T in the same storage family.
func (m *CSC) Transpose() *CSC {
	t := m.ToCSR()
	return &CSC{Rows: t.Cols, Cols: t.Rows, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
}

// Dense expands the matrix to a row-major dense [][]float64 (tests only).
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for r := range d {
		d[r] = make([]float64, m.Cols)
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			d[r][m.ColIdx[i]] = m.Val[i]
		}
	}
	return d
}

// Dense expands the matrix to a row-major dense [][]float64 (tests only).
func (m *CSC) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for r := range d {
		d[r] = make([]float64, m.Cols)
	}
	for c := 0; c < m.Cols; c++ {
		for i := m.ColPtr[c]; i < m.ColPtr[c+1]; i++ {
			d[m.RowIdx[i]][c] = m.Val[i]
		}
	}
	return d
}

// Identity returns the n x n identity in CSC form.
func Identity(n int) *CSC {
	m := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1), RowIdx: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.ColPtr[i+1] = i + 1
		m.RowIdx[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// ColMax returns, for each column c, the maximum entry value in that
// column (0 for an empty column). Used for the paper's Amax(u) table.
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
func (m *CSC) Max() float64 {
	max := 0.0
	for _, v := range m.Val {
		if v > max {
			max = v
		}
	}
	return max
}

// Scale multiplies every stored entry by s, in place.
func (m *CSC) Scale(s float64) {
	for i := range m.Val {
		m.Val[i] *= s
	}
}

// Vector is a sparse vector: parallel slices of sorted unique indices and
// values. It is the storage used for columns of L^{-1} during queries.
type Vector struct {
	N   int
	Idx []int
	Val []float64
}

// Dot computes the inner product of two sparse vectors by merging their
// sorted index lists.
func (a *Vector) Dot(b *Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// Scatter writes the vector into dense workspace ws (len N), returning the
// touched indices so the caller can cheaply zero them again.
func (a *Vector) Scatter(ws []float64) []int {
	for k, idx := range a.Idx {
		ws[idx] = a.Val[k]
	}
	return a.Idx
}

// Col extracts column c as a sparse Vector (shares no storage).
func (m *CSC) Col(c int) *Vector {
	lo, hi := m.ColPtr[c], m.ColPtr[c+1]
	v := &Vector{N: m.Rows, Idx: make([]int, hi-lo), Val: make([]float64, hi-lo)}
	for k, r := range m.RowIdx[lo:hi] {
		v.Idx[k] = int(r)
	}
	copy(v.Val, m.Val[lo:hi])
	return v
}
