package lu

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/rwr"
	"kdash/internal/sparse"
)

// randomW builds W = I - (1-c)A for a random graph's normalised adjacency.
func randomW(seed int64, n, m int, c float64) (*sparse.CSC, *sparse.CSC) {
	g := gen.ErdosRenyi(n, m, seed)
	a := g.ColumnNormalized()
	return BuildW(a, c), a
}

func matMulDense(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func TestBuildW(t *testing.T) {
	_, a := randomW(1, 10, 30, 0.9)
	w := BuildW(a, 0.9)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := -(1 - 0.9) * a.At(i, j)
			if i == j {
				want += 1
			}
			if math.Abs(w.At(i, j)-want) > 1e-12 {
				t.Fatalf("W[%d][%d] = %v, want %v", i, j, w.At(i, j), want)
			}
		}
	}
}

func TestDecomposeReconstructsW(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		w, _ := randomW(seed, n, 3*n, 0.8+0.19*rng.Float64())
		fac, err := Decompose(w)
		if err != nil {
			return false
		}
		prod := matMulDense(fac.L().Dense(), fac.U().Dense())
		wd := w.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(prod[i][j]-wd[i][j]) > 1e-9 {
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

func TestTriangularShape(t *testing.T) {
	w, _ := randomW(3, 15, 50, 0.95)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	ld, ud := fac.L().Dense(), fac.U().Dense()
	for i := 0; i < 15; i++ {
		if math.Abs(ld[i][i]-1) > 1e-12 {
			t.Errorf("L[%d][%d] = %v, want 1", i, i, ld[i][i])
		}
		for j := i + 1; j < 15; j++ {
			if ld[i][j] != 0 {
				t.Errorf("L has upper entry [%d][%d] = %v", i, j, ld[i][j])
			}
			if ud[j][i] != 0 {
				t.Errorf("U has lower entry [%d][%d] = %v", j, i, ud[j][i])
			}
		}
	}
}

func TestSolveDenseMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		c := 0.7 + 0.29*rng.Float64()
		w, a := randomW(seed, n, 4*n, c)
		fac, err := Decompose(w)
		if err != nil {
			return false
		}
		q := rng.Intn(n)
		b := make([]float64, n)
		b[q] = c
		got := fac.SolveDense(b)
		want, err := rwr.DenseSolve(a, q, c)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInverseIsExact(t *testing.T) {
	// Property: L * L^{-1} = I and U * U^{-1} = I entry-wise.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		w, _ := randomW(seed, n, 3*n, 0.9)
		fac, err := Decompose(w)
		if err != nil {
			return false
		}
		inv := fac.Invert(Options{Workers: 1 + rng.Intn(3)})
		li := inv.Linv.Dense()
		ui := inv.Uinv.Dense()
		for _, pair := range []struct{ a, b [][]float64 }{
			{fac.L().Dense(), li},
			{fac.U().Dense(), ui},
		} {
			prod := matMulDense(pair.a, pair.b)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(prod[i][j]-want) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInverseTriangularShape(t *testing.T) {
	w, _ := randomW(5, 12, 40, 0.95)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	inv := fac.Invert(Options{Workers: 1})
	li := inv.Linv.Dense()
	ui := inv.Uinv.Dense()
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if li[i][j] != 0 {
				t.Errorf("L^-1 upper entry [%d][%d] = %v", i, j, li[i][j])
			}
			if ui[j][i] != 0 {
				t.Errorf("U^-1 lower entry [%d][%d] = %v", j, i, ui[j][i])
			}
		}
	}
}

func TestProximityViaInverseFactors(t *testing.T) {
	// p = c U^{-1} L^{-1} q (Equation (3)) must equal the iterative RWR.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		c := 0.95
		g := gen.BarabasiAlbert(n+4, 2, seed)
		a := g.ColumnNormalized()
		fac, err := Decompose(BuildW(a, c))
		if err != nil {
			return false
		}
		inv := fac.Invert(Options{})
		q := rng.Intn(g.N())
		lq := inv.Linv.Col(q)
		dense := make([]float64, g.N())
		lq.Scatter(dense)
		// p_u = c * row u of U^{-1} dot L^{-1} e_q.
		want, _, err := rwr.Iterative(a, q, c, 1e-14, 100000)
		if err != nil {
			return false
		}
		for u := 0; u < g.N(); u++ {
			s := 0.0
			for i := inv.Uinv.RowPtr[u]; i < inv.Uinv.RowPtr[u+1]; i++ {
				s += inv.Uinv.Val[i] * dense[inv.Uinv.ColIdx[i]]
			}
			if math.Abs(c*s-want[u]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	w, _ := randomW(9, 120, 600, 0.95)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	serial := fac.Invert(Options{Workers: 1})
	parallel := fac.Invert(Options{Workers: 4})
	if serial.NNZ() != parallel.NNZ() {
		t.Fatalf("nnz differs: %d vs %d", serial.NNZ(), parallel.NNZ())
	}
	sd, pd := serial.Linv.Dense(), parallel.Linv.Dense()
	for i := range sd {
		for j := range sd[i] {
			if sd[i][j] != pd[i][j] {
				t.Fatalf("L^-1[%d][%d] differs: %v vs %v", i, j, sd[i][j], pd[i][j])
			}
		}
	}
}

func TestDropTolReducesNNZ(t *testing.T) {
	w, _ := randomW(11, 150, 800, 0.95)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	exact := fac.Invert(Options{})
	dropped := fac.Invert(Options{DropTol: 1e-4})
	if dropped.NNZ() >= exact.NNZ() {
		t.Errorf("drop tolerance did not reduce nnz: %d vs %d", dropped.NNZ(), exact.NNZ())
	}
	if dropped.NNZ() == 0 {
		t.Error("drop tolerance removed everything")
	}
}

func TestDecomposeRejectsNonSquare(t *testing.T) {
	m := sparse.NewCOO(2, 3).ToCSC()
	if _, err := Decompose(m); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestDecomposeZeroPivot(t *testing.T) {
	// A singular matrix with an unavoidable zero pivot: all zeros.
	m := sparse.NewCOO(3, 3).ToCSC()
	if _, err := Decompose(m); err == nil {
		t.Error("expected zero-pivot error")
	}
}

func TestIdentityFactorization(t *testing.T) {
	id := sparse.Identity(6)
	fac, err := Decompose(id)
	if err != nil {
		t.Fatal(err)
	}
	if fac.NNZL() != 6 || fac.NNZU() != 6 {
		t.Errorf("identity factors should be diagonal only: nnzL=%d nnzU=%d", fac.NNZL(), fac.NNZU())
	}
	inv := fac.Invert(Options{})
	if inv.NNZ() != 12 {
		t.Errorf("identity inverses should be diagonal only: %d", inv.NNZ())
	}
}

// oracleInvert is the inversion this package shipped before the
// sort-once rewrite, kept as the bit-for-bit reference: the upper solve
// sorts its reach descending through sort.Reverse, gather re-sorts a
// copy ascending, columns grow by append, and U^{-1} takes a detour
// through a CSC before it is transposed. BuildW's COO detour rides
// along in oracleBuildW.
func oracleInvert(f *Factors) (*sparse.CSC, *sparse.CSR) {
	ws := newSolveWorkspace(f.N)
	reachFrom := func(j int, ptr, row []int) []int {
		return append([]int(nil), f.reachFrom(j, ws, ptr, row)...)
	}
	gather := func(reach []int) column {
		idxs := append([]int(nil), reach...)
		sort.Ints(idxs)
		var c column
		for _, i := range idxs {
			if ws.x[i] != 0 {
				c.idx = append(c.idx, i)
				c.val = append(c.val, ws.x[i])
			}
		}
		return c
	}
	lCols, uCols := make([]column, f.N), make([]column, f.N)
	for j := 0; j < f.N; j++ {
		reach := reachFrom(j, f.lPtr, f.lRow)
		sort.Ints(reach)
		for _, i := range reach {
			ws.x[i] = 0
		}
		ws.x[j] = 1
		for _, i := range reach {
			for p := f.lPtr[i]; p < f.lPtr[i+1] && ws.x[i] != 0; p++ {
				ws.x[f.lRow[p]] -= f.lVal[p] * ws.x[i]
			}
		}
		lCols[j] = gather(reach)

		reach = reachFrom(j, f.uPtr, f.uRow)
		sort.Sort(sort.Reverse(sort.IntSlice(reach)))
		for _, i := range reach {
			ws.x[i] = 0
		}
		ws.x[j] = 1
		for _, i := range reach {
			ws.x[i] /= f.uVal[f.uPtr[i+1]-1]
			for p := f.uPtr[i]; p < f.uPtr[i+1]-1 && ws.x[i] != 0; p++ {
				ws.x[f.uRow[p]] -= f.uVal[p] * ws.x[i]
			}
		}
		uCols[j] = gather(reach)
	}
	return assembleCSC(f.N, lCols), assembleCSC(f.N, uCols).ToCSR()
}

func oracleBuildW(a *sparse.CSC, c float64) *sparse.CSC {
	coo := sparse.NewCOO(a.Rows, a.Rows)
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	for col := 0; col < a.Rows; col++ {
		for i := a.ColPtr[col]; i < a.ColPtr[col+1]; i++ {
			coo.Add(a.RowIdx[i], col, -(1-c)*a.Val[i])
		}
	}
	return coo.ToCSC()
}

// TestInvertBitIdenticalToOracle: the rewrite changed how the inverse is
// assembled, not one operation of the arithmetic, so every index and
// every value bit must match — serial and parallel.
func TestInvertBitIdenticalToOracle(t *testing.T) {
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for seed := int64(1); seed <= 12; seed++ {
		n := 20 + 15*int(seed)
		g := gen.DirectedScaleFree(n, 3, 0.6, 0.3, seed) // self loops and dangling nodes included
		a := g.ColumnNormalized()
		w, wantW := BuildW(a, 0.9), oracleBuildW(a, 0.9)
		if !slices.Equal(w.ColPtr, wantW.ColPtr) || !slices.Equal(w.RowIdx, wantW.RowIdx) || !slices.Equal(bits(w.Val), bits(wantW.Val)) {
			t.Fatalf("seed %d: BuildW differs from the COO oracle", seed)
		}
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		wantL, wantU := oracleInvert(fac)
		for _, workers := range []int{1, 3} {
			inv := fac.Invert(Options{Workers: workers})
			if !slices.Equal(inv.Linv.ColPtr, wantL.ColPtr) || !slices.Equal(inv.Linv.RowIdx, wantL.RowIdx) || !slices.Equal(bits(inv.Linv.Val), bits(wantL.Val)) {
				t.Fatalf("seed %d workers %d: L^-1 differs from the oracle", seed, workers)
			}
			if !slices.Equal(inv.Uinv.RowPtr, wantU.RowPtr) || !slices.Equal(inv.Uinv.ColIdx, wantU.ColIdx) || !slices.Equal(bits(inv.Uinv.Val), bits(wantU.Val)) {
				t.Fatalf("seed %d workers %d: U^-1 differs from the oracle", seed, workers)
			}
		}
	}
}
