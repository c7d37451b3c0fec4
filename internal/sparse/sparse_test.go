package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// dense expands m to a row-major dense matrix.
func dense(m *CSC) [][]float64 {
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

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Add(0, 1, 2)
	coo.Add(2, 3, 5)
	coo.Add(1, 0, -1)
	m := coo.ToCSR()
	want := &CSR{Rows: 3, Cols: 4, RowPtr: []int{0, 1, 2, 3}, ColIdx: []int32{1, 0, 3}, Val: []float64{2, -1, 5}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("ToCSR = %+v, want %+v", m, want)
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2.5)
	coo.Add(1, 1, 4)
	coo.Add(1, 1, -4) // cancels to zero, must be dropped
	m := coo.ToCSC()
	if d := dense(m); !almostEq(d[0][0], 3.5) {
		t.Errorf("(0,0) = %v, want 3.5", d[0][0])
	}
	if m.NNZ() != 1 {
		t.Errorf("nnz = %d, want 1 (exact-zero entry must be dropped)", m.NNZ())
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	coo := NewCOO(rows, cols)
	for i := 0; i < nnz; i++ {
		coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()+0.1)
	}
	return coo
}

func TestCSRCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		csc := randomCOO(rng, rows, cols, rng.Intn(60)).ToCSC()
		back := csc.ToCSR().ToCSC()
		if !reflect.DeepEqual(dense(csc), dense(back)) {
			t.Fatalf("trial %d: CSC->CSR->CSC changed matrix", trial)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		csc := randomCOO(rng, rows, cols, rng.Intn(50)).ToCSC()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		d := dense(csc)
		want := make([]float64, rows)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				want[r] += d[r][c] * x[c]
			}
		}
		y := make([]float64, rows)
		csc.MulVecTo(y, x)
		for r := range want {
			if math.Abs(y[r]-want[r]) > 1e-9 {
				t.Fatalf("trial %d MulVecTo: y[%d] = %v, want %v", trial, r, y[r], want[r])
			}
		}
	}
}

func TestPermuteSymRoundTrip(t *testing.T) {
	// Applying a permutation and then its inverse restores the matrix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := randomCOO(rng, n, n, rng.Intn(3*n)).ToCSC()
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		back := m.PermuteSym(perm).PermuteSym(inv)
		return reflect.DeepEqual(dense(m), dense(back))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPermuteSymMovesEntries(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 1, 7)
	m := coo.ToCSC()
	// perm maps 0->2, 1->0, 2->1, so entry (0,1) moves to (2,0).
	p := m.PermuteSym([]int{2, 0, 1})
	if got := dense(p)[2][0]; !almostEq(got, 7) {
		t.Errorf("permuted entry (2,0) = %v, want 7", got)
	}
	if p.NNZ() != 1 {
		t.Errorf("nnz = %d, want 1", p.NNZ())
	}
}

func TestColMaxAndMax(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 0.5)
	coo.Add(1, 0, 0.9)
	coo.Add(2, 2, 0.3)
	m := coo.ToCSC()
	cm := m.ColMax()
	want := []float64{0.9, 0, 0.3}
	for i := range want {
		if !almostEq(cm[i], want[i]) {
			t.Errorf("ColMax[%d] = %v, want %v", i, cm[i], want[i])
		}
	}
	if !almostEq(m.Max(), 0.9) {
		t.Errorf("Max = %v, want 0.9", m.Max())
	}
}
