package lu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/graph"
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

// denseOf expands m to a row-major dense matrix.
func denseOf(m *sparse.CSC) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
	}
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			d[m.RowIdx[p]][j] = m.Val[p]
		}
	}
	return d
}

// factorsDense expands the factors to dense L, its unit diagonal
// included, and dense U.
func factorsDense(f *Factors) (l, u [][]float64) {
	l, u = make([][]float64, f.N), make([][]float64, f.N)
	for i := range l {
		l[i], u[i] = make([]float64, f.N), make([]float64, f.N)
		l[i][i] = 1
	}
	for j := 0; j < f.N; j++ {
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			l[f.lRow[p]][j] = f.lVal[p]
		}
		for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
			u[f.uRow[p]][j] = f.uVal[p]
		}
	}
	return l, u
}

// identityW returns the n x n identity in CSC form.
func identityW(n int) *sparse.CSC {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	return coo.ToCSC()
}

func TestBuildW(t *testing.T) {
	_, a := randomW(1, 10, 30, 0.9)
	ad, wd := denseOf(a), denseOf(BuildW(a, 0.9))
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := -(1 - 0.9) * ad[i][j]
			if i == j {
				want += 1
			}
			if math.Abs(wd[i][j]-want) > 1e-12 {
				t.Fatalf("W[%d][%d] = %v, want %v", i, j, wd[i][j], want)
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
		prod := matMulDense(factorsDense(fac))
		wd := denseOf(w)
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
	ld, ud := factorsDense(fac)
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
		inv := mustInvert(fac, Options{Workers: 1 + rng.Intn(3)})
		li := denseOf(inv.Linv.CSC())
		ui := denseOf(inv.Uinv.CSR().ToCSC())
		ld, ud := factorsDense(fac)
		for _, pair := range []struct{ a, b [][]float64 }{
			{ld, li},
			{ud, ui},
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
	inv := mustInvert(fac, Options{Workers: 1})
	li := denseOf(inv.Linv.CSC())
	ui := denseOf(inv.Uinv.CSR().ToCSC())
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
		inv := mustInvert(fac, Options{})
		q := rng.Intn(g.N())
		l := inv.Linv.CSC()
		dense := make([]float64, g.N())
		for i := l.ColPtr[q]; i < l.ColPtr[q+1]; i++ {
			dense[l.RowIdx[i]] = l.Val[i]
		}
		// p_u = c * row u of U^{-1} dot L^{-1} e_q.
		want, _, err := rwr.Iterative(a, q, c, 1e-14, 100000)
		if err != nil {
			return false
		}
		ur := inv.Uinv.CSR()
		for u := 0; u < g.N(); u++ {
			s := 0.0
			for i := ur.RowPtr[u]; i < ur.RowPtr[u+1]; i++ {
				s += ur.Val[i] * dense[ur.ColIdx[i]]
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
	serial := mustInvert(fac, Options{Workers: 1})
	parallel := mustInvert(fac, Options{Workers: 4})
	if serial.NNZ() != parallel.NNZ() {
		t.Fatalf("nnz differs: %d vs %d", serial.NNZ(), parallel.NNZ())
	}
	sd, pd := denseOf(serial.Linv.CSC()), denseOf(parallel.Linv.CSC())
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
	exact := mustInvert(fac, Options{})
	dropped := mustInvert(fac, Options{DropTol: 1e-4})
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
	id := identityW(6)
	fac, err := Decompose(id)
	if err != nil {
		t.Fatal(err)
	}
	if fac.NNZL() != 6 || fac.NNZU() != 6 {
		t.Errorf("identity factors should be diagonal only: nnzL=%d nnzU=%d", fac.NNZL(), fac.NNZU())
	}
	inv := mustInvert(fac, Options{})
	if inv.NNZ() != 12 {
		t.Errorf("identity inverses should be diagonal only: %d", inv.NNZ())
	}
}

// oracleDecompose is Decompose as it stood before its pattern sort
// moved to a bitset, kept verbatim as the bit-for-bit reference: the
// elimination order is the DFS's reverse postorder, and each column's
// pattern is sorted with slices.Sort before it is split into U and L.
//
//kdash:mutates-factors
func oracleDecompose(w *sparse.CSC) (*Factors, error) {
	n := w.Rows
	if w.Cols != n {
		return nil, fmt.Errorf("lu: matrix must be square, got %dx%d", w.Rows, w.Cols)
	}
	f := &Factors{
		N:    n,
		lPtr: make([]int, n+1),
		uPtr: make([]int, n+1),
	}
	// Workspaces for the Gilbert–Peierls column solve.
	x := make([]float64, n)
	mark := make([]int, n) // mark[i] == j+1 means i is in column j's pattern
	stack := make([]int, 0, n)
	order := make([]int, 0, n) // reverse-topological output of the DFS
	// DFS over the column DAG of L: edge i -> k when L[k][i] != 0 (k > i).
	// Iterative with explicit position stack.
	pos := make([]int, n)

	for j := 0; j < n; j++ {
		// Sparse RHS: column j of W.
		lo, hi := w.ColPtr[j], w.ColPtr[j+1]
		order = order[:0]
		for t := lo; t < hi; t++ {
			i := int(w.RowIdx[t])
			if mark[i] == j+1 {
				continue
			}
			// DFS from i through columns of L with index < j.
			stack = append(stack[:0], i)
			mark[i] = j + 1
			pos[i] = f.lPtr[i] // valid only when i < j; guarded below
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				if v >= j {
					// No column of L yet for v; it is a sink.
					order = append(order, v)
					stack = stack[:len(stack)-1]
					continue
				}
				advanced := false
				for p := pos[v]; p < f.lPtr[v+1]; p++ {
					k := int(f.lRow[p])
					if mark[k] != j+1 {
						mark[k] = j + 1
						pos[v] = p + 1
						pos[k] = f.lPtr[k]
						stack = append(stack, k)
						advanced = true
						break
					}
				}
				if !advanced {
					order = append(order, v)
					stack = stack[:len(stack)-1]
				}
			}
		}
		// Scatter RHS values.
		for _, i := range order {
			x[i] = 0
		}
		for t := lo; t < hi; t++ {
			x[w.RowIdx[t]] = w.Val[t]
		}
		// Eliminate in topological order (reverse of DFS output).
		for t := len(order) - 1; t >= 0; t-- {
			i := order[t]
			if i >= j {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
				x[f.lRow[p]] -= f.lVal[p] * xi
			}
		}
		// Split x into U[:,j] (indices <= j) and L[:,j] (indices > j).
		slices.Sort(order)
		diag := 0.0
		for _, i := range order {
			if i < j {
				if x[i] != 0 {
					f.uRow = append(f.uRow, int32(i))
					f.uVal = append(f.uVal, x[i])
				}
			} else if i == j {
				diag = x[i]
			}
		}
		if diag == 0 || math.IsNaN(diag) {
			return nil, fmt.Errorf("lu: zero pivot at column %d (matrix not factorizable without pivoting)", j)
		}
		// Diagonal of U is stored last in its column.
		f.uRow = append(f.uRow, int32(j))
		f.uVal = append(f.uVal, diag)
		f.uPtr[j+1] = len(f.uVal)
		for _, i := range order {
			if i > j && x[i] != 0 {
				f.lRow = append(f.lRow, int32(i))
				f.lVal = append(f.lVal, x[i]/diag)
			}
		}
		f.lPtr[j+1] = len(f.lVal)
	}
	return f, nil
}

// solveWorkspace and reachFrom are the DFS reach the inversion used
// before the touched-row frontier replaced it, kept verbatim for
// oracleInvert.
type solveWorkspace struct {
	x     []float64
	mark  []bool
	reach []int
	stack []int
	pos   []int
}

func newSolveWorkspace(n int) *solveWorkspace {
	return &solveWorkspace{
		x:    make([]float64, n),
		mark: make([]bool, n),
		pos:  make([]int, n),
	}
}

// reachFrom computes all indices reachable from j in the DAG whose edges
// are i -> rows of column i (excluding the diagonal for U, which is the
// last entry; including it is harmless as it self-loops), in ascending
// order. Marks are reset before returning. The result aliases the
// workspace and is valid until the next call.
func (f *Factors) reachFrom(j int, ws *solveWorkspace, ptr []int, row []int32) []int {
	ws.reach = ws.reach[:0]
	ws.stack = append(ws.stack[:0], j)
	ws.mark[j] = true
	ws.pos[j] = ptr[j]
	for len(ws.stack) > 0 {
		v := ws.stack[len(ws.stack)-1]
		advanced := false
		for p := ws.pos[v]; p < ptr[v+1]; p++ {
			k := int(row[p])
			if k == v {
				continue // diagonal entry (U stores it)
			}
			if !ws.mark[k] {
				ws.mark[k] = true
				ws.pos[v] = p + 1
				ws.pos[k] = ptr[k]
				ws.stack = append(ws.stack, k)
				advanced = true
				break
			}
		}
		if !advanced {
			ws.reach = append(ws.reach, v)
			ws.stack = ws.stack[:len(ws.stack)-1]
		}
	}
	for _, i := range ws.reach {
		ws.mark[i] = false
	}
	slices.Sort(ws.reach)
	return ws.reach
}

// mustInvert is Invert with every row owned, for factors whose
// inversion cannot fail: it panics on an error.
func mustInvert(f *Factors, opt Options) *Inverse {
	inv, err := f.Invert(f.N, opt)
	if err != nil {
		panic(err)
	}
	return inv
}

// oracleInvert is the inversion this package shipped before the
// sort-once rewrite, kept as the bit-for-bit reference: the upper solve
// sorts its reach descending through sort.Reverse, gather re-sorts a
// copy ascending, columns grow by append, and U^{-1} takes a detour
// through a CSC before it is transposed. BuildW's COO detour rides
// along in oracleBuildW.
func oracleInvert(f *Factors) (*sparse.CSC, *sparse.CSR) {
	ws := newSolveWorkspace(f.N)
	reachFrom := func(j int, ptr []int, row []int32) []int {
		return append([]int(nil), f.reachFrom(j, ws, ptr, row)...)
	}
	gather := func(reach []int) column {
		idxs := append([]int(nil), reach...)
		sort.Ints(idxs)
		var c column
		for _, i := range idxs {
			if ws.x[i] != 0 {
				c.idx = append(c.idx, int32(i))
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
	return concatCSC(f.N, lCols), concatCSC(f.N, uCols).ToCSR()
}

// concatCSC concatenates columns into one CSC matrix, rows in each
// column's order: the plain form the encoded factors are checked
// against.
func concatCSC(n int, cols []column) *sparse.CSC {
	m := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j, c := range cols {
		m.RowIdx = append(m.RowIdx, c.idx...)
		m.Val = append(m.Val, c.val...)
		m.ColPtr[j+1] = len(m.Val)
	}
	return m
}

func oracleBuildW(a *sparse.CSC, c float64) *sparse.CSC {
	coo := sparse.NewCOO(a.Rows, a.Rows)
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	for col := 0; col < a.Rows; col++ {
		for i := a.ColPtr[col]; i < a.ColPtr[col+1]; i++ {
			coo.Add(int(a.RowIdx[i]), col, -(1-c)*a.Val[i])
		}
	}
	return coo.ToCSC()
}

func valBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// dropCSC and dropCSR remove the entries of magnitude below tol — what
// a positive Options.DropTol does to each computed column.
func dropCSC(m *sparse.CSC, tol float64) *sparse.CSC {
	out := &sparse.CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: make([]int, m.Cols+1)}
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if math.Abs(m.Val[p]) >= tol {
				out.RowIdx = append(out.RowIdx, m.RowIdx[p])
				out.Val = append(out.Val, m.Val[p])
			}
		}
		out.ColPtr[j+1] = len(out.Val)
	}
	return out
}

func dropCSR(m *sparse.CSR, tol float64) *sparse.CSR {
	t := dropCSC(&sparse.CSC{Rows: m.Cols, Cols: m.Rows, ColPtr: m.RowPtr, RowIdx: m.ColIdx, Val: m.Val}, tol)
	return &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// arrowW is W for the shape a sharded build factors: community blocks
// on the diagonal, a trailing border that links to and from every
// block, and a last ghost-sink node that absorbs the cut weight of
// every third node and has no out-edges.
func arrowW(seed int64, blocks, size, border int) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
	n := blocks*size + border + 1
	sink := n - 1
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if u != v {
			if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
				panic(err)
			}
		}
	}
	for blk := 0; blk < blocks; blk++ {
		for u := blk * size; u < (blk+1)*size; u++ {
			for e := 0; e < 4; e++ {
				add(u, blk*size+rng.Intn(size))
			}
			if rng.Intn(4) == 0 {
				add(u, blocks*size+rng.Intn(border))
			}
			if u%3 == 0 {
				add(u, sink)
			}
		}
	}
	for u := blocks * size; u < sink; u++ {
		for e := 0; e < 6; e++ {
			add(u, rng.Intn(sink))
		}
		add(u, sink)
	}
	return BuildW(b.Build().ColumnNormalized(), 0.95)
}

// bitInputs are the W matrices the bit-identity tests factor: random
// scale-free and Erdős–Rényi graphs (self loops and dangling nodes
// included), the identity, and arrow-shaped blocks.
func bitInputs() []*sparse.CSC {
	var ws []*sparse.CSC
	for seed := int64(1); seed <= 12; seed++ {
		g := gen.DirectedScaleFree(20+15*int(seed), 3, 0.6, 0.3, seed)
		ws = append(ws, BuildW(g.ColumnNormalized(), 0.9))
		w, _ := randomW(seed, 10+10*int(seed), 40*int(seed), 0.8)
		ws = append(ws, w)
	}
	ws = append(ws, identityW(70), arrowW(1, 4, 30, 14), arrowW(2, 4, 30, 14))
	return ws
}

// TestDecomposeBitIdenticalToOracle: Decompose emits each column's
// pattern from a bitset instead of sorting it, which must not change
// one index or one value bit of L or U.
func TestDecomposeBitIdenticalToOracle(t *testing.T) {
	for k, w := range bitInputs() {
		got, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleDecompose(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.lPtr, want.lPtr) || !slices.Equal(got.lRow, want.lRow) || !slices.Equal(valBits(got.lVal), valBits(want.lVal)) {
			t.Fatalf("input %d: L differs from the oracle", k)
		}
		if !slices.Equal(got.uPtr, want.uPtr) || !slices.Equal(got.uRow, want.uRow) || !slices.Equal(valBits(got.uVal), valBits(want.uVal)) {
			t.Fatalf("input %d: U differs from the oracle", k)
		}
	}
}

// TestInvertBitIdenticalToOracle: the frontier changed how each
// column's rows are ordered and where the columns are stored, not one
// operation of the arithmetic, so every index and every value bit must
// match — serial and parallel, exact and with a drop tolerance, which
// must equal the oracle's columns with the small entries removed.
func TestInvertBitIdenticalToOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		a := gen.DirectedScaleFree(20+15*int(seed), 3, 0.6, 0.3, seed).ColumnNormalized()
		w, wantW := BuildW(a, 0.9), oracleBuildW(a, 0.9)
		if !slices.Equal(w.ColPtr, wantW.ColPtr) || !slices.Equal(w.RowIdx, wantW.RowIdx) || !slices.Equal(valBits(w.Val), valBits(wantW.Val)) {
			t.Fatalf("seed %d: BuildW differs from the COO oracle", seed)
		}
	}
	dropped := false
	for k, w := range bitInputs() {
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		exactL, exactU := oracleInvert(fac)
		for _, tol := range []float64{0, 1e-3} {
			wantL, wantU := exactL, exactU
			if tol > 0 {
				wantL, wantU = dropCSC(exactL, tol), dropCSR(exactU, tol)
				dropped = dropped || wantL.NNZ() < exactL.NNZ()
			}
			for _, workers := range []int{1, 3} {
				inv := mustInvert(fac, Options{Workers: workers, DropTol: tol})
				gotL, gotU := inv.Linv.CSC(), inv.Uinv.CSR()
				if !slices.Equal(gotL.ColPtr, wantL.ColPtr) || !slices.Equal(gotL.RowIdx, wantL.RowIdx) || !slices.Equal(valBits(gotL.Val), valBits(wantL.Val)) {
					t.Fatalf("input %d tol %g workers %d: L^-1 differs from the oracle", k, tol, workers)
				}
				if !slices.Equal(gotU.RowPtr, wantU.RowPtr) || !slices.Equal(gotU.ColIdx, wantU.ColIdx) || !slices.Equal(valBits(gotU.Val), valBits(wantU.Val)) {
					t.Fatalf("input %d tol %g workers %d: U^-1 differs from the oracle", k, tol, workers)
				}
				if err := sameCompact(inv.Linv, CompactCSC(wantL, fac.N)); err != nil {
					t.Fatalf("input %d tol %g workers %d: L^-1 is not the oracle's encoding: %v", k, tol, workers, err)
				}
				if err := sameCompact(inv.Uinv, CompactCSR(wantU)); err != nil {
					t.Fatalf("input %d tol %g workers %d: U^-1 is not the oracle's encoding: %v", k, tol, workers, err)
				}
			}
		}
	}
	if !dropped {
		t.Fatal("the drop tolerance removed no entry on any input")
	}
}

// TestInvertAllocs pins the inversion's allocation count on a shard-
// shaped factor: a handful per worker and per slab, not per column.
// Each allocation moves GC pacing, and so the peak RSS of a server that
// rebuilds shards on update.
func TestInvertAllocs(t *testing.T) {
	w := arrowW(7, 20, 90, 199)
	n := w.Cols
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(3, func() { mustInvert(fac, Options{Workers: workers}) })
		t.Logf("workers %d: %.0f allocations for %d columns", workers, allocs, n)
		if allocs >= float64(n/8) {
			t.Errorf("workers %d: Invert made %.0f allocations for %d columns, want < %d", workers, allocs, n, n/8)
		}
	}
}
