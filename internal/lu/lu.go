// Package lu implements the sparse numerical kernel of K-dash's
// precomputation: LU decomposition of W = I - (1-c)A (the paper's
// Equations (6)–(7), Crout/Doolittle form with unit lower diagonal) and
// exact sparse inversion of the triangular factors (Equations (4)–(5)).
//
// W is strictly diagonally dominant by columns for any column-stochastic
// (or sub-stochastic) A and restart probability c in (0,1), so the
// factorization needs no pivoting — the same assumption the paper makes.
//
// The factorization is the left-looking Gilbert–Peierls algorithm: each
// column of W is solved against the already-computed columns of L using a
// depth-first reachability pass, so the total cost is proportional to the
// number of floating-point operations, not n^2. The triangular inverses
// are computed column by column too (solving L x = e_j and U x = e_j),
// which realises exactly the recurrences (4)–(5), but with no DFS: the
// right-hand side is a unit vector and every scatter goes one way, so a
// bitset of touched rows yields the rows in elimination order (see
// frontier), at the cost of the arithmetic plus a word scan.
//
// The query-time primitive is the split solve (splitsolve.go): an
// L^{-1} pass of a sparse right-hand side into a Workspace, then one
// U^{-1} row dot per row the caller reads. L^{-1} by column and U^{-1}
// by row are the only two factor forms stored, both in the compact id
// encoding (compact.go), which only this package decodes; nothing
// derives a third form.
//
// Factor arrays are read-only once built. Every solver in this package
// (Inverse.Solve, Inverse.SolveLower) writes only into workspaces,
// never into a factor array — a contract with teeth: a loaded index's factor arrays
// alias sealed PROT_READ memory (internal/mmapio), where a write is a
// segfault, not a bug report.
package lu

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kdash/internal/sparse"
)

// BuildW forms W = I - (1-c)A in CSC form from the column-normalised
// adjacency A. The index build factorizes W without forming it
// (RefactorizeW); BuildW is the matrix that factorization equals.
func BuildW(a *sparse.CSC, c float64) *sparse.CSC {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lu: adjacency must be square, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	w := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	w.RowIdx = make([]int32, 0, a.NNZ()+n)
	w.Val = make([]float64, 0, a.NNZ()+n)
	for col := 0; col < n; col++ {
		w.RowIdx, w.Val = appendWColumn(w.RowIdx, w.Val, a, c, col)
		w.ColPtr[col+1] = len(w.RowIdx)
	}
	return w
}

// appendWColumn appends column col of W = I - (1-c)A to rows and vals:
// A's column with the identity's 1 merged in at row col, rows
// ascending, zeros dropped. BuildW and RefactorizeW both form W's
// columns here, so the factorization of one is the factorization of
// the other.
func appendWColumn(rows []int32, vals []float64, a *sparse.CSC, c float64, col int) ([]int32, []float64) {
	put := func(row int32, v float64) {
		if v != 0 {
			rows = append(rows, row)
			vals = append(vals, v)
		}
	}
	diag := 1.0
	i, hi := a.ColPtr[col], a.ColPtr[col+1]
	for ; i < hi && int(a.RowIdx[i]) < col; i++ {
		put(a.RowIdx[i], -(1-c)*a.Val[i])
	}
	if i < hi && int(a.RowIdx[i]) == col {
		diag += -(1 - c) * a.Val[i]
		i++
	}
	put(int32(col), diag)
	for ; i < hi; i++ {
		put(a.RowIdx[i], -(1-c)*a.Val[i])
	}
	return rows, vals
}

// Factors holds the sparse LU decomposition W = L U with unit lower
// triangular L (unit diagonal implicit) and upper triangular U (diagonal
// stored).
// The factor arrays are immutable once Decompose returns — downstream
// consumers may alias them into sealed read-only memory — so every field
// carries the //kdash:readonly contract enforced by tools/kdashvet.
type Factors struct {
	N int
	// L columns, strictly lower part: row indices ascending.
	//
	//kdash:readonly
	lPtr []int
	//kdash:readonly
	lRow []int32
	//kdash:readonly
	lVal []float64
	// U columns, including diagonal: row indices ascending; the diagonal
	// entry is the last entry of each column.
	//
	//kdash:readonly
	uPtr []int
	//kdash:readonly
	uRow []int32
	//kdash:readonly
	uVal []float64

	// dirty marks the columns whose L and U parts may differ from the
	// previous epoch's factorization (see Refactorize); nil when there
	// was no previous epoch, so every column counts as dirty.
	dirty []bool
}

// NNZL reports stored entries of L including the implicit unit diagonal.
func (f *Factors) NNZL() int { return len(f.lVal) + f.N }

// NNZU reports stored entries of U (diagonal included).
func (f *Factors) NNZU() int { return len(f.uVal) }

// Decompose computes the LU factorization of the sparse matrix w, which
// must be square with a nonzero diagonal after elimination (guaranteed
// for W = I - (1-c)A). Column order is taken as given — reorder first.
func Decompose(w *sparse.CSC) (*Factors, error) { return Refactorize(w, nil, 0) }

// Refactorize is Decompose for the next epoch of a matrix whose
// previous factorization was inverted: changed[j] reports that column j
// of w differs, in pattern or in any value's bits, from column j of the
// previous epoch's matrix, and nil means there is no previous epoch.
// The factors are Decompose's, bit for bit; on the side, column j is
// marked dirty when changed[j] holds or any row of its elimination
// reach (the DFS reach below j, whether or not its multiplier turns out
// zero) is a dirty column. A clean column eliminated the same column of
// W against the same factor columns in the same order, so its L and U
// parts equal the previous epoch's bit for bit — which is what lets
// Invert copy every inverse column that reads no dirty factor column.
//
// sizeHint, when positive, is the expected NNZL()+NNZU() — the previous
// epoch's, which a small change barely moves — and sizes the factors'
// storage up front; zero lets it grow.
//
//kdash:mutates-factors
func Refactorize(w *sparse.CSC, changed []bool, sizeHint int) (*Factors, error) {
	if w.Cols != w.Rows {
		return nil, fmt.Errorf("lu: matrix must be square, got %dx%d", w.Rows, w.Cols)
	}
	col := func(j int) ([]int32, []float64) {
		lo, hi := w.ColPtr[j], w.ColPtr[j+1]
		return w.RowIdx[lo:hi], w.Val[lo:hi]
	}
	return factorize(w.Rows, w.NNZ(), col, changed, sizeHint)
}

// RefactorizeW is Refactorize(BuildW(a, c), changed, sizeHint), bit for
// bit, without W's copy: each column of W is formed from A's as the
// elimination reaches it.
//
//kdash:mutates-factors
func RefactorizeW(a *sparse.CSC, c float64, changed []bool, sizeHint int) (*Factors, error) {
	if a.Cols != a.Rows {
		return nil, fmt.Errorf("lu: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	var rows []int32
	var vals []float64
	col := func(j int) ([]int32, []float64) {
		rows, vals = appendWColumn(rows[:0], vals[:0], a, c, j)
		return rows, vals
	}
	return factorize(a.Rows, a.NNZ()+a.Rows, col, changed, sizeHint)
}

// factorize is Refactorize over an n x n matrix with nnz entries whose
// column j is col(j): its rows without repeats, in the stored order,
// which seeds the DFS and so fixes the elimination order.
//
// L's and U's entries share one pair of arrays: L's fill it from the
// front, U's from the back, so one estimate of their total sizes both
// whatever their split. The arrays double when the two ends meet, and
// U's columns, laid down back to front, are put in order at the end.
//
//kdash:mutates-factors
func factorize(n, nnz int, col func(j int) ([]int32, []float64), changed []bool, sizeHint int) (*Factors, error) {
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
	touched := make([]uint64, (n+63)/64) // all zero between columns
	if changed != nil {
		if len(changed) != n {
			return nil, fmt.Errorf("lu: %d changed flags for %d columns", len(changed), n)
		}
		f.dirty = make([]bool, n)
	}

	// L holds row[:lo], U holds row[hi:] (and val likewise).
	size := 2 * nnz
	if sizeHint > 0 {
		size = sizeHint - n + sizeHint/16 // stored entries, with room for fill
	}
	size = max(size, n)
	row, val := make([]int32, size), make([]float64, size)
	lo, hi := 0, size
	for j := 0; j < n; j++ {
		// Sparse RHS: column j of W.
		wRow, wVal := col(j)
		order = order[:0]
		for _, wi := range wRow {
			i := int(wi)
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
					k := int(row[p])
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
		if f.dirty != nil {
			f.dirty[j] = changed[j]
			for _, i := range order {
				if i < j && f.dirty[i] {
					f.dirty[j] = true
					break
				}
			}
		}
		// Scatter RHS values.
		for _, i := range order {
			x[i] = 0
		}
		for t, i := range wRow {
			x[i] = wVal[t]
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
				x[row[p]] -= val[p] * xi
			}
		}
		// Split x into U[:,j] (indices <= j) and L[:,j] (indices > j).
		sortDistinct(order, touched)
		k, found := slices.BinarySearch(order, j)
		diag := 0.0
		if found {
			diag = x[j]
		}
		if diag == 0 || math.IsNaN(diag) {
			return nil, fmt.Errorf("lu: zero pivot at column %d (matrix not factorizable without pivoting)", j)
		}
		if hi-lo < len(order) {
			row, val, hi = regrow(row, val, lo, hi, len(order))
		}
		// U's column, diagonal last, goes down from the back.
		hi--
		row[hi], val[hi] = int32(j), diag
		for t := k - 1; t >= 0; t-- {
			if i := order[t]; x[i] != 0 {
				hi--
				row[hi], val[hi] = int32(i), x[i]
			}
		}
		f.uPtr[j+1] = len(row) - hi
		for _, i := range order[k+1:] {
			if x[i] != 0 {
				row[lo], val[lo] = int32(i), x[i]/diag
				lo++
			}
		}
		f.lPtr[j+1] = lo
	}
	// U's columns lie last to first, each in order: reversing the span
	// puts the columns in order, each reversed, and reversing each
	// column puts it back.
	f.lRow, f.lVal = row[:lo:lo], val[:lo:lo]
	f.uRow, f.uVal = row[hi:], val[hi:]
	slices.Reverse(f.uRow)
	slices.Reverse(f.uVal)
	for j := 0; j < n; j++ {
		slices.Reverse(f.uRow[f.uPtr[j]:f.uPtr[j+1]])
		slices.Reverse(f.uVal[f.uPtr[j]:f.uPtr[j+1]])
	}
	return f, nil
}

// regrow returns factorize's shared arrays with at least k free slots
// between L's lo entries at the front and U's entries from hi on at the
// back: at least double the size, both ends copied to their ends, and
// the new hi.
func regrow(row []int32, val []float64, lo, hi, k int) ([]int32, []float64, int) {
	u := len(row) - hi
	size := max(2*len(row), lo+u+k)
	row2, val2 := make([]int32, size), make([]float64, size)
	copy(row2, row[:lo])
	copy(val2, val[:lo])
	copy(row2[size-u:], row[hi:])
	copy(val2[size-u:], val[hi:])
	return row2, val2, size - u
}

// sortDistinct sorts a slice of distinct indices ascending in place by
// setting their bits in touched and reading the bits back in order —
// linear in the slice plus the span it covers in words. touched must be
// all zero on entry and is left all zero.
func sortDistinct(s []int, touched []uint64) {
	lo, hi := len(touched), -1
	for _, i := range s {
		touched[i>>6] |= 1 << (i & 63)
		lo, hi = min(lo, i>>6), max(hi, i>>6)
	}
	s = s[:0]
	for w := lo; w <= hi; w++ {
		for word := touched[w]; word != 0; word &= word - 1 {
			s = append(s, w<<6|bits.TrailingZeros64(word))
		}
		touched[w] = 0
	}
}

// SolveDense solves L U x = b for dense b (used by tests and by callers
// that need a full proximity vector through the factorization).
func (f *Factors) SolveDense(b []float64) []float64 {
	if len(b) != f.N {
		panic("lu: SolveDense dimension mismatch")
	}
	x := make([]float64, f.N)
	copy(x, b)
	// Forward: L y = b, unit diagonal.
	for i := 0; i < f.N; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
			x[f.lRow[p]] -= f.lVal[p] * xi
		}
	}
	// Backward: U x = y. Diagonal entry is last in each column.
	for i := f.N - 1; i >= 0; i-- {
		d := f.uVal[f.uPtr[i+1]-1]
		xi := x[i] / d
		x[i] = xi
		if xi == 0 {
			continue
		}
		for p := f.uPtr[i]; p < f.uPtr[i+1]-1; p++ {
			x[f.uRow[p]] -= f.uVal[p] * xi
		}
	}
	return x
}

// L returns the unit lower factor as CSC (diagonal 1s materialised),
// mainly for tests.
func (f *Factors) L() *sparse.CSC {
	coo := sparse.NewCOO(f.N, f.N)
	for j := 0; j < f.N; j++ {
		coo.Add(j, j, 1)
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			coo.Add(int(f.lRow[p]), j, f.lVal[p])
		}
	}
	return coo.ToCSC()
}

// U returns the upper factor as CSC, mainly for tests.
func (f *Factors) U() *sparse.CSC {
	coo := sparse.NewCOO(f.N, f.N)
	for j := 0; j < f.N; j++ {
		for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
			coo.Add(int(f.uRow[p]), j, f.uVal[p])
		}
	}
	return coo.ToCSC()
}

// Options configures the triangular inversion.
type Options struct {
	// DropTol discards inverse entries with absolute value below it.
	// Zero (the default) keeps every entry: the exact setting the paper's
	// guarantee requires. Positive values are an ablation knob that
	// trades exactness for sparsity.
	DropTol float64
	// Workers sets the number of goroutines for column inversion.
	// 0 means GOMAXPROCS; 1 forces serial execution.
	Workers int
	// Prev, when non-nil, is the inverse of the previous epoch's
	// factorization, inverted with the same DropTol, of factors that
	// Refactorize marked against it. Every inverse column whose solve
	// reads no dirty factor column is copied from Prev instead of
	// solved; the result is bit for bit the from-scratch inverse.
	Prev *Inverse
}

// Inverse holds the sparse inverse triangular factors. Linv is stored by
// column (a query needs column q = L^{-1} e_q) and Uinv by row (computing
// one proximity needs row u of U^{-1}); this asymmetry is what makes the
// per-node proximity computation O(nnz(row) + nnz(col)). Both are in the
// compact id encoding (see Compact).
type Inverse struct {
	N int
	// Both inverse factors are immutable after construction; in a loaded
	// index their arrays alias sealed PROT_READ memory.
	//
	//kdash:readonly
	Linv *Compact
	//kdash:readonly
	Uinv *Compact

	// Reused counts the columns of L^{-1} and U^{-1} together that
	// Invert copied from Options.Prev; the other 2N - Reused were
	// solved.
	Reused int
}

// NNZ reports total stored entries across both inverse factors, the
// quantity Figure 5 of the paper tracks.
func (inv *Inverse) NNZ() int { return inv.Linv.NNZ() + inv.Uinv.NNZ() }

// Bytes is the byte size of both factors' arrays at their stored width.
func (inv *Inverse) Bytes() int64 { return inv.Linv.Bytes() + inv.Uinv.Bytes() }

// Solve computes U^{-1} L^{-1} r for one dense right-hand side: the
// plain reference form of the solve. The query path runs the split
// solve (SolveLower, then UpperRowDot per row read), which is
// property-tested against this kernel so the two cannot silently
// diverge. Zero entries of r cost nothing in the L^{-1} pass.
func (inv *Inverse) Solve(r []float64) []float64 {
	if len(r) != inv.N {
		panic("lu: Solve dimension mismatch")
	}
	// ws = L^{-1} r, accumulated column by column of L^{-1} over the
	// nonzero right-hand side entries.
	ws := make([]float64, inv.N)
	l := inv.Linv
	for j, rj := range r {
		if rj == 0 {
			continue
		}
		i, e := j-1, l.EscPtr[j]
		for p := l.Ptr[j]; p < l.Ptr[j+1]; p++ {
			if g := l.Gap[p]; g != 0 {
				i += int(g)
			} else {
				i, e = int(l.Esc[e]), e+1
			}
			ws[i] += rj * l.Val[p]
		}
	}
	// out[u] = (U^{-1} row u) . ws.
	out := make([]float64, inv.N)
	u := inv.Uinv
	for row := range out {
		acc := 0.0
		c, e := row-1, u.EscPtr[row]
		for p := u.Ptr[row]; p < u.Ptr[row+1]; p++ {
			if g := u.Gap[p]; g != 0 {
				c += int(g)
			} else {
				c, e = int(u.Esc[e]), e+1
			}
			acc += u.Val[p] * ws[c]
		}
		out[row] = acc
	}
	return out
}

// Invert computes L^{-1} and U^{-1} exactly, column by column, realising
// the paper's Equations (4)–(5). L^{-1} is assembled before U^{-1}'s
// columns are computed, and the U^{-1} pass writes its columns into the
// slabs L^{-1}'s columns were carved from. With Options.Prev, only the
// columns whose solve would read a dirty factor column are solved: column
// j of L^{-1} reads the L columns of its reach, the rows at or below j
// that column j's pattern leads to, and column j of U^{-1} the U columns
// of the rows at or above j that its pattern leads to.
func (f *Factors) Invert(opt Options) *Inverse {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if f.N < 64 {
		workers = 1
	}
	prev := opt.Prev
	if f.dirty == nil || prev == nil || prev.N != f.N {
		prev = nil
	}
	var solveL, solveU []bool // nil: solve every column
	if prev != nil {
		solveL, solveU = f.reach(f.lPtr, f.lRow, true), f.reach(f.uPtr, f.uRow, false)
	}
	fronts := make([]*frontier, workers)
	for w := range fronts {
		fronts[w] = newFrontier(f.N, opt.DropTol)
	}
	cols := make([]column, f.N)
	var prevL, prevU *Compact
	if prev != nil {
		prevL, prevU = prev.Linv, prev.Uinv
	}
	reused := invertColumns(cols, fronts, solveL, f.lowerColumn)
	linv := assembleLines(cols, solveL, prevL)
	reused += invertColumns(cols, fronts, solveU, f.upperColumn)
	return &Inverse{N: f.N, Linv: linv, Uinv: assembleCSR(f.N, cols, solveU, prevU), Reused: reused}
}

// reach returns, per column j, whether the inverse column j's solve
// reads a dirty factor column: whether j is dirty or the pattern of the
// factor's column j (ptr/row, diagonal excluded) leads to such a
// column. The L^{-1} solve (lower) scatters down to higher rows, so the
// flags are settled from the last column back; the U^{-1} solve scatters
// up, so from the first forward. The stored patterns bound every row a
// solve can touch.
func (f *Factors) reach(ptr []int, row []int32, lower bool) []bool {
	n := f.N
	out := make([]bool, n)
	for t := 0; t < n; t++ {
		j := t
		if lower {
			j = n - 1 - t
		}
		d := f.dirty[j]
		for p := ptr[j]; p < ptr[j+1] && !d; p++ {
			if i := int(row[p]); i != j {
				d = out[i]
			}
		}
		out[j] = d
	}
	return out
}

// column is one computed sparse column of an inverse factor. Columns of
// L^{-1} list their rows ascending, columns of U^{-1} descending (the
// order each is solved in); assembleCSR does not depend on the order.
type column struct {
	idx []int32
	val []float64
}

// invertColumns runs solve(j) for every column j that marked marks (nil
// marks all), one worker per frontier, each starting from its first
// slab, and returns how many columns it left unmarked. Workers claim
// runs of columns off a shared cursor: one column is a few microseconds
// of work, too little to hand over one at a time.
func invertColumns(cols []column, fronts []*frontier, marked []bool, solve func(j int, ws *frontier) column) (skipped int) {
	n := len(cols)
	const run = 32
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for _, ws := range fronts {
		ws.rewind()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(run)) - run
				if lo >= n {
					return
				}
				for j := lo; j < min(lo+run, n); j++ {
					if marked == nil || marked[j] {
						cols[j] = solve(j, ws)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, m := range marked {
		if !m {
			skipped++
		}
	}
	return skipped
}

// A frontier is one worker's state for the inverse-column solves.
//
// A column solve is the Gilbert–Peierls triangular solve against e_j
// with no symbolic pass: touched holds one bit per row the column has
// scattered into and not yet finalised. Every scatter goes strictly one
// way (to higher rows in L, lower rows in U), so the lowest (L) or
// highest (U) set bit is always a row whose value is final — the rows
// come out in the order of the sorted structural reach, each one
// eliminated with the same floating-point operations in the same
// order. Rows of the reach that no scatter touches hold an exact zero,
// whose elimination would be a no-op, and are never visited.
//
// Between columns x and touched are all zero: each row is cleared when
// it is popped. A finished column is a window of the current slab.
type frontier struct {
	x       []float64
	touched []uint64
	drop    float64

	// The column under construction is idx[start:], val[start:]; the
	// current slab is idx[:cap(idx)], val[:cap(val)].
	idx   []int32
	val   []float64
	start int
	// slabs are every slab this worker has allocated, of total size
	// slabbed; refill takes slabs[next] when there is one, so a second
	// pass over the frontier reuses the first pass's memory.
	slabs   []slab
	slabbed int
	next    int
}

type slab struct {
	idx []int32
	val []float64
}

// minSlab is the smallest slab, in entries (192 KB of index and value).
const minSlab = 1 << 14

func newFrontier(n int, drop float64) *frontier {
	return &frontier{
		x:       make([]float64, n),
		touched: make([]uint64, (n+63)/64),
		drop:    drop,
	}
}

// rewind starts a new pass from the first slab. Columns of the previous
// pass that point into the slabs are overwritten.
func (ws *frontier) rewind() {
	ws.idx, ws.val, ws.start, ws.next = nil, nil, 0, 0
}

// emit appends row i with its final, nonzero value v to the column
// under construction, unless a positive drop tolerance exceeds |v|.
func (ws *frontier) emit(i int, v float64) {
	if ws.drop > 0 && math.Abs(v) < ws.drop {
		return
	}
	if len(ws.idx) == cap(ws.idx) {
		ws.refill()
	}
	ws.idx = append(ws.idx, int32(i))
	ws.val = append(ws.val, v)
}

// refill moves the column under construction to the start of the next
// slab. A slab holds at least n entries, so any column fits in an empty
// one, and each slab wastes less than one column. Slabs grow by a
// quarter of what the worker holds, so a dense inverse takes
// logarithmically many.
//
//kdash:noalloc
func (ws *frontier) refill() {
	if ws.next == len(ws.slabs) {
		size := max(len(ws.x), minSlab, ws.slabbed/4)
		ws.slabbed += size
		idx := make([]int32, size)   //kdash:allow(hotalloc) slab refill: one per slab of entries, amortised over every column it holds, and reused by the next pass
		val := make([]float64, size) //kdash:allow(hotalloc) the refill's paired value slab
		ws.slabs = append(ws.slabs, slab{idx: idx, val: val})
	}
	s := ws.slabs[ws.next]
	ws.next++
	part := copy(s.idx, ws.idx[ws.start:])
	copy(s.val, ws.val[ws.start:])
	ws.idx, ws.val, ws.start = s.idx[:part], s.val[:part], 0
}

// finish returns the column under construction and starts the next one.
func (ws *frontier) finish() column {
	end := len(ws.idx)
	c := column{idx: ws.idx[ws.start:end:end], val: ws.val[ws.start:end:end]}
	ws.start = len(ws.idx)
	return c
}

// lowerColumn computes column j of L^{-1}: solve L x = e_j. Column i of
// L scatters into rows of higher index, so rows are finalised in
// ascending order.
//
//kdash:noalloc
func (f *Factors) lowerColumn(j int, ws *frontier) column {
	x, touched := ws.x, ws.touched
	x[j] = 1
	touched[j>>6] |= 1 << (j & 63)
	hi := j >> 6 // highest word with a set bit
	for w := j >> 6; w <= hi; w++ {
		for touched[w] != 0 {
			i := w<<6 | bits.TrailingZeros64(touched[w])
			touched[w] &^= 1 << (i & 63)
			xi := x[i]
			x[i] = 0
			if xi == 0 {
				continue
			}
			ws.emit(i, xi)
			lo, end := f.lPtr[i], f.lPtr[i+1]
			if lo == end {
				continue
			}
			for p := lo; p < end; p++ {
				k := int(f.lRow[p])
				x[k] -= f.lVal[p] * xi
				touched[k>>6] |= 1 << (k & 63)
			}
			hi = max(hi, int(f.lRow[end-1])>>6) // rows ascending: the last is the largest
		}
	}
	return ws.finish()
}

// upperColumn computes column j of U^{-1}: solve U x = e_j. Column i of
// U scatters into rows of lower index, so rows are finalised in
// descending order.
//
//kdash:noalloc
func (f *Factors) upperColumn(j int, ws *frontier) column {
	x, touched := ws.x, ws.touched
	x[j] = 1
	touched[j>>6] |= 1 << (j & 63)
	lo := j >> 6 // lowest word with a set bit
	for w := j >> 6; w >= lo; w-- {
		for touched[w] != 0 {
			i := w<<6 | (63 - bits.LeadingZeros64(touched[w]))
			touched[w] &^= 1 << (i & 63)
			start, diag := f.uPtr[i], f.uPtr[i+1]-1 // the diagonal is stored last
			xi := x[i] / f.uVal[diag]
			x[i] = 0
			if xi == 0 {
				continue
			}
			ws.emit(i, xi)
			if start == diag {
				continue
			}
			for p := start; p < diag; p++ {
				k := int(f.uRow[p])
				x[k] -= f.uVal[p] * xi
				touched[k>>6] |= 1 << (k & 63)
			}
			lo = min(lo, int(f.uRow[start])>>6) // rows ascending: the first is the smallest
		}
	}
	return ws.finish()
}

// assembleLines encodes the computed lines (columns of L^{-1}, each
// ascending) as a factor stored by line. With prev, only the lines
// solved marks come from lines; every other line is prev's, copied as
// it is encoded.
//
//kdash:mutates-factors
func assembleLines(lines []column, solved []bool, prev *Compact) *Compact {
	n := len(lines)
	copied := func(j int) bool { return prev != nil && !solved[j] }
	ptr, escPtr := make([]int, n+1), make([]int, n+1)
	for j, c := range lines {
		if copied(j) {
			ptr[j+1] = ptr[j] + prev.Ptr[j+1] - prev.Ptr[j]
			escPtr[j+1] = escPtr[j] + prev.EscPtr[j+1] - prev.EscPtr[j]
		} else {
			ptr[j+1] = ptr[j] + len(c.idx)
			escPtr[j+1] = escPtr[j] + escapes(j, c.idx)
		}
	}
	m := newCompact(ptr, escPtr)
	for j, c := range lines {
		if copied(j) {
			lo, hi := prev.Ptr[j], prev.Ptr[j+1]
			copy(m.Gap[ptr[j]:], prev.Gap[lo:hi])
			copy(m.Val[ptr[j]:], prev.Val[lo:hi])
			copy(m.Esc[escPtr[j]:], prev.Esc[prev.EscPtr[j]:prev.EscPtr[j+1]])
		} else {
			m.put(j, ptr[j], escPtr[j], c.idx)
			copy(m.Val[ptr[j]:], c.val)
		}
	}
	return m
}

// assembleCSR lays the columns out by row and encodes the rows: U^{-1}.
// Visiting columns in ascending order reaches every row's entries in
// ascending column order, whatever the order of rows within a column,
// so each row is encoded as its entries arrive: one visit counts every
// row's entries and escapes, a second writes them. With prev, only the
// columns solved marks come from cols; every other column is prev's,
// and each row merges prev's row restricted to those columns with the
// solved columns' entries: a cursor per row walks prev's row, and
// before an entry of column j lands on row i, every entry of prev's row
// i left of j is emitted.
//
//kdash:mutates-factors
func assembleCSR(n int, cols []column, solved []bool, prev *Compact) *Compact {
	var rows []cursor // per row, a cursor on prev's row
	if prev != nil {
		rows = make([]cursor, n)
	}
	last := make([]int32, n) // per row, the column last emitted
	// visit hands emit every entry of U^{-1}, each row's in ascending
	// column order, with the gap from the row's last column.
	visit := func(emit func(i, j, gap int, v float64)) {
		put := func(i, j int, v float64) {
			emit(i, j, j-int(last[i]), v)
			last[i] = int32(j)
		}
		// flush emits prev's entries of row i left of column before, but
		// those of solved columns.
		flush := func(i, before int) {
			r, end := &rows[i], prev.Ptr[i+1]
			for r.id < before {
				if !solved[r.id] {
					put(i, r.id, prev.Val[r.p])
				}
				switch r.p++; {
				case r.p == end:
					r.id = n
				case prev.Gap[r.p] != 0:
					r.id += int(prev.Gap[r.p])
				default:
					r.id, r.e = int(prev.Esc[r.e]), r.e+1
				}
			}
		}
		for i := range last {
			last[i] = int32(i - 1)
			if prev != nil {
				rows[i] = prev.cursor(i)
			}
		}
		for j, c := range cols {
			if prev != nil && !solved[j] {
				continue
			}
			for k, i := range c.idx {
				if prev != nil {
					flush(int(i), j)
				}
				put(int(i), j, c.val[k])
			}
		}
		for i := range rows {
			flush(i, n)
		}
	}
	ptr, escPtr := make([]int, n+1), make([]int, n+1)
	visit(func(i, _, gap int, _ float64) {
		ptr[i+1]++
		if gap < 1 || gap > 255 {
			escPtr[i+1]++
		}
	})
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
		escPtr[i+1] += escPtr[i]
	}
	m := newCompact(ptr, escPtr)
	// ptr[i] and escPtr[i] are row i's write cursors until the shift
	// back below.
	visit(func(i, j, gap int, v float64) {
		p := ptr[i]
		ptr[i]++
		if gap >= 1 && gap <= 255 {
			m.Gap[p] = uint8(gap)
		} else {
			m.Esc[escPtr[i]] = int32(j)
			escPtr[i]++
		}
		m.Val[p] = v
	})
	copy(ptr[1:], ptr[:n])
	copy(escPtr[1:], escPtr[:n])
	ptr[0], escPtr[0] = 0, 0
	return m
}
