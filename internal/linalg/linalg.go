// Package linalg provides the dense linear algebra the NB_LIN / B_LIN
// baselines need: row-major dense matrices, matrix products, Gauss–Jordan
// inversion, Gram–Schmidt orthonormalisation, a cyclic Jacobi symmetric
// eigensolver, and a randomised truncated SVD for sparse matrices.
package linalg

import (
	"fmt"
	"math"
	"math/rand"

	"kdash/internal/sparse"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns a * b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a * x for a dense vector x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		s := 0.0
		for j, v := range r {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Inverse computes the inverse by Gauss–Jordan elimination with partial
// pivoting. Returns an error if the matrix is numerically singular.
func Inverse(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot invert %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	work := a.Clone()
	inv := NewDense(n, n)
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(work.At(r, col)) > math.Abs(work.At(piv, col)) {
				piv = r
			}
		}
		pval := work.At(piv, col)
		if math.Abs(pval) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if piv != col {
			swapRows(work, piv, col)
			swapRows(inv, piv, col)
		}
		d := 1 / work.At(col, col)
		scaleRow(work, col, d)
		scaleRow(inv, col, d)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(work, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

func swapRows(m *Dense, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

func scaleRow(m *Dense, r int, s float64) {
	row := m.Row(r)
	for j := range row {
		row[j] *= s
	}
}

// axpyRow adds f * row[src] to row[dst].
func axpyRow(m *Dense, dst, src int, f float64) {
	rd, rs := m.Row(dst), m.Row(src)
	for j := range rd {
		rd[j] += f * rs[j]
	}
}

// Orthonormalize replaces the columns of m with an orthonormal basis of
// their span using modified Gram–Schmidt. Columns that become numerically
// zero are re-randomised against the given rng and re-orthogonalised, so
// the result always has full column rank.
func Orthonormalize(m *Dense, rng *rand.Rand) {
	for j := 0; j < m.Cols; j++ {
		for attempt := 0; ; attempt++ {
			for k := 0; k < j; k++ {
				dot := 0.0
				for i := 0; i < m.Rows; i++ {
					dot += m.At(i, j) * m.At(i, k)
				}
				for i := 0; i < m.Rows; i++ {
					m.Set(i, j, m.At(i, j)-dot*m.At(i, k))
				}
			}
			norm := 0.0
			for i := 0; i < m.Rows; i++ {
				norm += m.At(i, j) * m.At(i, j)
			}
			norm = math.Sqrt(norm)
			if norm > 1e-12 {
				for i := 0; i < m.Rows; i++ {
					m.Set(i, j, m.At(i, j)/norm)
				}
				break
			}
			if attempt > 4 {
				// Degenerate subspace: give up and zero the column.
				for i := 0; i < m.Rows; i++ {
					m.Set(i, j, 0)
				}
				break
			}
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
	}
}

// JacobiEigen computes the eigendecomposition of a symmetric matrix using
// cyclic Jacobi rotations: a = V diag(vals) V^T. Eigenvalues are returned
// in descending order with matching eigenvector columns.
func JacobiEigen(a *Dense) (vals []float64, vecs *Dense) {
	if a.Rows != a.Cols {
		panic("linalg: JacobiEigen needs a square matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				cos := 1 / math.Sqrt(t*t+1)
				sin := t * cos
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, cos*wkp-sin*wkq)
					w.Set(k, q, sin*wkp+cos*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, cos*wpk-sin*wqk)
					w.Set(q, k, sin*wpk+cos*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, cos*vkp-sin*vkq)
					v.Set(k, q, sin*vkp+cos*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort descending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	outVals := make([]float64, n)
	outVecs := NewDense(n, n)
	for newCol, oldCol := range idx {
		outVals[newCol] = vals[oldCol]
		for i := 0; i < n; i++ {
			outVecs.Set(i, newCol, v.At(i, oldCol))
		}
	}
	return outVals, outVecs
}

// SVD is a truncated singular value decomposition a ≈ U diag(S) Vt.
type SVD struct {
	U  *Dense    // rows x rank
	S  []float64 // rank singular values, descending
	Vt *Dense    // rank x cols
}

// TruncatedSVD computes a rank-r SVD of the sparse matrix a using
// randomised subspace iteration (Halko et al.): sample Y = (A A^T)^p A Ω,
// orthonormalise, project, and solve the small eigenproblem of B B^T.
// The seed makes the decomposition deterministic. rank is clamped to
// min(rows, cols).
func TruncatedSVD(a *sparse.CSC, rank, powerIters int, seed int64) *SVD {
	rows, cols := a.Rows, a.Cols
	if rank > rows {
		rank = rows
	}
	if rank > cols {
		rank = cols
	}
	if rank <= 0 {
		panic("linalg: TruncatedSVD rank must be positive")
	}
	oversample := 8
	k := rank + oversample
	if k > rows {
		k = rows
	}
	if k > cols {
		k = cols
	}
	rng := rand.New(rand.NewSource(seed))
	// Omega: cols x k Gaussian.
	omega := NewDense(cols, k)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := mulSparseDense(a, omega) // rows x k
	Orthonormalize(y, rng)
	for it := 0; it < powerIters; it++ {
		z := mulSparseTDense(a, y) // cols x k
		Orthonormalize(z, rng)
		y = mulSparseDense(a, z)
		Orthonormalize(y, rng)
	}
	// B = Q^T A  (k x cols). Computed as (A^T Q)^T.
	bt := mulSparseTDense(a, y) // cols x k
	b := bt.T()                 // k x cols
	// Small symmetric eigenproblem of B B^T (k x k).
	bbt := Mul(b, bt)
	vals, w := JacobiEigen(bbt)
	// Singular values and factors, truncated to rank.
	s := make([]float64, rank)
	for i := 0; i < rank; i++ {
		if vals[i] > 0 {
			s[i] = math.Sqrt(vals[i])
		}
	}
	// U = Q W[:, :rank]  (rows x rank).
	wTrunc := NewDense(w.Rows, rank)
	for i := 0; i < w.Rows; i++ {
		for j := 0; j < rank; j++ {
			wTrunc.Set(i, j, w.At(i, j))
		}
	}
	u := Mul(y, wTrunc)
	// Vt = diag(1/s) W^T B  (rank x cols).
	vt := NewDense(rank, cols)
	wtb := Mul(wTrunc.T(), b)
	for i := 0; i < rank; i++ {
		inv := 0.0
		if s[i] > 1e-12 {
			inv = 1 / s[i]
		}
		for j := 0; j < cols; j++ {
			vt.Set(i, j, inv*wtb.At(i, j))
		}
	}
	return &SVD{U: u, S: s, Vt: vt}
}

// mulSparseDense returns a * d where a is sparse (rows x cols) and d is
// dense (cols x k).
func mulSparseDense(a *sparse.CSC, d *Dense) *Dense {
	if a.Cols != d.Rows {
		panic("linalg: mulSparseDense shape mismatch")
	}
	out := NewDense(a.Rows, d.Cols)
	for c := 0; c < a.Cols; c++ {
		dr := d.Row(c)
		for i := a.ColPtr[c]; i < a.ColPtr[c+1]; i++ {
			r := int(a.RowIdx[i])
			v := a.Val[i]
			or := out.Row(r)
			for j, dv := range dr {
				or[j] += v * dv
			}
		}
	}
	return out
}

// mulSparseTDense returns a^T * d where a is sparse (rows x cols) and d
// is dense (rows x k); the result is cols x k.
func mulSparseTDense(a *sparse.CSC, d *Dense) *Dense {
	if a.Rows != d.Rows {
		panic("linalg: mulSparseTDense shape mismatch")
	}
	out := NewDense(a.Cols, d.Cols)
	for c := 0; c < a.Cols; c++ {
		or := out.Row(c)
		for i := a.ColPtr[c]; i < a.ColPtr[c+1]; i++ {
			r := int(a.RowIdx[i])
			v := a.Val[i]
			dr := d.Row(r)
			for j, dv := range dr {
				or[j] += v * dv
			}
		}
	}
	return out
}
