package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/sparse"
)

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 3)
	b := randomDense(rng, 3, 5)
	got := Mul(a, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			for k := 0; k < 3; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(got.At(i, j)-want) > 1e-12 {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 5, 3)
	b := a.T().T()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("T().T() changed the matrix")
		}
	}
}

func TestInverseProperty(t *testing.T) {
	// A * A^{-1} = I for random well-conditioned matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ { // diagonal boost for conditioning
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod := Mul(a, inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 1) // rank 1
	if _, err := Inverse(a); err == nil {
		t.Error("expected singular error")
	}
	if _, err := Inverse(NewDense(2, 3)); err == nil {
		t.Error("expected non-square error")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	got := a.MulVec([]float64{1, 0, -1})
	if math.Abs(got[0]+2) > 1e-12 || math.Abs(got[1]+2) > 1e-12 {
		t.Errorf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomDense(rng, 20, 5)
	Orthonormalize(m, rng)
	for a := 0; a < 5; a++ {
		for b := a; b < 5; b++ {
			dot := 0.0
			for i := 0; i < 20; i++ {
				dot += m.At(i, a) * m.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Errorf("col %d . col %d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestOrthonormalizeDependentColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewDense(10, 3)
	for i := 0; i < 10; i++ {
		v := rng.NormFloat64()
		m.Set(i, 0, v)
		m.Set(i, 1, 2*v) // linearly dependent
		m.Set(i, 2, rng.NormFloat64())
	}
	Orthonormalize(m, rng)
	// Column 1 must have been re-randomised into a unit vector orthogonal
	// to column 0.
	dot, norm := 0.0, 0.0
	for i := 0; i < 10; i++ {
		dot += m.At(i, 0) * m.At(i, 1)
		norm += m.At(i, 1) * m.At(i, 1)
	}
	if math.Abs(dot) > 1e-9 || math.Abs(norm-1) > 1e-9 {
		t.Errorf("dependent column not fixed: dot=%v norm=%v", dot, norm)
	}
}

func TestJacobiEigenSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		// Random symmetric matrix.
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := JacobiEigen(a)
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				return false
			}
		}
		// A v_i = lambda_i v_i.
		for col := 0; col < n; col++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, col)
			}
			av := a.MulVec(v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[col]*v[i]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sparseFromDense(d *Dense) *sparse.CSC {
	coo := sparse.NewCOO(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.At(i, j) != 0 {
				coo.Add(i, j, d.At(i, j))
			}
		}
	}
	return coo.ToCSC()
}

// sparseToDense expands a to a row-major dense matrix.
func sparseToDense(a *sparse.CSC) [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			d[a.RowIdx[k]][j] = a.Val[k]
		}
	}
	return d
}

// reconstruct returns U diag(S) Vt as a dense matrix.
func reconstruct(s *SVD) *Dense {
	us := s.U.Clone()
	for i := 0; i < us.Rows; i++ {
		for j := range s.S {
			us.Set(i, j, us.At(i, j)*s.S[j])
		}
	}
	return Mul(us, s.Vt)
}

func TestTruncatedSVDExactForLowRank(t *testing.T) {
	// A rank-2 matrix is reconstructed exactly by a rank-2 truncated SVD.
	rng := rand.New(rand.NewSource(5))
	u := randomDense(rng, 15, 2)
	v := randomDense(rng, 2, 12)
	a := Mul(u, v)
	svd := TruncatedSVD(sparseFromDense(a), 2, 3, 1)
	rec := reconstruct(svd)
	for i := 0; i < 15; i++ {
		for j := 0; j < 12; j++ {
			if math.Abs(rec.At(i, j)-a.At(i, j)) > 1e-6 {
				t.Fatalf("reconstruction error at (%d,%d): %v vs %v", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
	if svd.S[0] < svd.S[1] {
		t.Errorf("singular values not descending: %v", svd.S)
	}
}

func TestTruncatedSVDErrorDecreasesWithRank(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 6)
	a := g.ColumnNormalized()
	frob := func(rank int) float64 {
		svd := TruncatedSVD(a, rank, 2, 2)
		rec := reconstruct(svd)
		s := 0.0
		ad := sparseToDense(a)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				d := rec.At(i, j) - ad[i][j]
				s += d * d
			}
		}
		return math.Sqrt(s)
	}
	e5, e40 := frob(5), frob(40)
	if e40 >= e5 {
		t.Errorf("rank-40 error %v should beat rank-5 error %v", e40, e5)
	}
}

func TestTruncatedSVDDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 7)
	a := g.ColumnNormalized()
	s1 := TruncatedSVD(a, 6, 2, 9)
	s2 := TruncatedSVD(a, 6, 2, 9)
	for i := range s1.S {
		if s1.S[i] != s2.S[i] {
			t.Fatalf("same seed, different singular values at %d", i)
		}
	}
}

func TestTruncatedSVDRankClamp(t *testing.T) {
	g := gen.ErdosRenyi(10, 30, 8)
	a := g.ColumnNormalized()
	svd := TruncatedSVD(a, 100, 1, 1)
	if len(svd.S) != 10 {
		t.Errorf("rank should clamp to n=10, got %d", len(svd.S))
	}
}
