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
// Factor arrays are read-only once built. Every solver in this package
// (Inverse.Solve, SparseSolver) writes exclusively into its own
// recycled workspaces — a contract with teeth: a loaded index's factor
// arrays alias sealed PROT_READ memory (internal/mmapio), where a write
// is a segfault, not a bug report. Derived structures built after
// load (the lazily transposed U^{-1} of Inverse.UinvByColumn) live in
// fresh private memory and are immutable once published.
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
// adjacency A.
func BuildW(a *sparse.CSC, c float64) *sparse.CSC {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lu: adjacency must be square, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	w := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	w.RowIdx = make([]int, 0, a.NNZ()+n)
	w.Val = make([]float64, 0, a.NNZ()+n)
	put := func(row int, v float64) {
		if v != 0 {
			w.RowIdx = append(w.RowIdx, row)
			w.Val = append(w.Val, v)
		}
	}
	for col := 0; col < n; col++ {
		// Column col of A with the identity's 1 merged in at row col.
		diag := 1.0
		i, hi := a.ColPtr[col], a.ColPtr[col+1]
		for ; i < hi && a.RowIdx[i] < col; i++ {
			put(a.RowIdx[i], -(1-c)*a.Val[i])
		}
		if i < hi && a.RowIdx[i] == col {
			diag += -(1 - c) * a.Val[i]
			i++
		}
		put(col, diag)
		for ; i < hi; i++ {
			put(a.RowIdx[i], -(1-c)*a.Val[i])
		}
		w.ColPtr[col+1] = len(w.RowIdx)
	}
	return w
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
	lRow []int
	//kdash:readonly
	lVal []float64
	// U columns, including diagonal: row indices ascending; the diagonal
	// entry is the last entry of each column.
	//
	//kdash:readonly
	uPtr []int
	//kdash:readonly
	uRow []int
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
func Decompose(w *sparse.CSC) (*Factors, error) { return Refactorize(w, nil) }

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
//kdash:mutates-factors
func Refactorize(w *sparse.CSC, changed []bool) (*Factors, error) {
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
	touched := make([]uint64, (n+63)/64) // all zero between columns
	if changed != nil {
		if len(changed) != n {
			return nil, fmt.Errorf("lu: %d changed flags for %d columns", len(changed), n)
		}
		f.dirty = make([]bool, n)
	}

	for j := 0; j < n; j++ {
		// Sparse RHS: column j of W.
		lo, hi := w.ColPtr[j], w.ColPtr[j+1]
		order = order[:0]
		for t := lo; t < hi; t++ {
			i := w.RowIdx[t]
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
					k := f.lRow[p]
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
		sortDistinct(order, touched)
		diag := 0.0
		for _, i := range order {
			if i < j {
				if x[i] != 0 {
					f.uRow = append(f.uRow, i)
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
		f.uRow = append(f.uRow, j)
		f.uVal = append(f.uVal, diag)
		f.uPtr[j+1] = len(f.uVal)
		for _, i := range order {
			if i > j && x[i] != 0 {
				f.lRow = append(f.lRow, i)
				f.lVal = append(f.lVal, x[i]/diag)
			}
		}
		f.lPtr[j+1] = len(f.lVal)
	}
	return f, nil
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
			coo.Add(f.lRow[p], j, f.lVal[p])
		}
	}
	return coo.ToCSC()
}

// U returns the upper factor as CSC, mainly for tests.
func (f *Factors) U() *sparse.CSC {
	coo := sparse.NewCOO(f.N, f.N)
	for j := 0; j < f.N; j++ {
		for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
			coo.Add(f.uRow[p], j, f.uVal[p])
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
// per-node proximity computation O(nnz(row) + nnz(col)).
type Inverse struct {
	N int
	// Both inverse factors are immutable after construction; in a loaded
	// index their Val/RowIdx/ColPtr slices alias sealed PROT_READ memory.
	//
	//kdash:readonly
	Linv *sparse.CSC
	//kdash:readonly
	Uinv *sparse.CSR

	// Remap, if non-nil, is a permutation of [0, N) naming the caller's
	// id for each internal row: every U^{-1} apply writes row r's value
	// at Remap[r], so solutions land directly in the caller's id domain
	// and no per-support output mapping pass is needed. The transposed
	// factor carries it baked into its row indices (see UinvByColumn).
	Remap []int

	// uinvCol is U^{-1} transposed to column form with Remap baked in,
	// built lazily for the support-driven applies (SparseSolver reaches
	// it through UinvByColumn). Immutable once built; never serialised.
	// uinvColSize holds just the per-column entry counts, built even more
	// lazily-cheaply so the scatter-vs-sweep decision never forces the
	// full transpose.
	uinvColOnce     sync.Once
	uinvCol         *sparse.CSC
	uinvColSizeOnce sync.Once
	uinvColSize     []int

	// Reused counts the columns of L^{-1} and U^{-1} together that
	// Invert copied from Options.Prev; the other 2N - Reused were
	// solved.
	Reused int
}

// NNZ reports total stored entries across both inverse factors, the
// quantity Figure 5 of the paper tracks.
func (inv *Inverse) NNZ() int { return inv.Linv.NNZ() + inv.Uinv.NNZ() }

// Solve computes U^{-1} L^{-1} r for one dense right-hand side: the
// plain reference form of the apply, ignoring Remap. The query path
// runs SparseSolver, a support-tracked variant that is property-tested
// against this kernel so the two cannot silently diverge. Zero entries
// of r cost nothing in the L^{-1} pass.
func (inv *Inverse) Solve(r []float64) []float64 {
	if len(r) != inv.N {
		panic("lu: Solve dimension mismatch")
	}
	// ws = L^{-1} r, accumulated column by column of L^{-1} over the
	// nonzero right-hand side entries.
	ws := make([]float64, inv.N)
	for j, rj := range r {
		if rj == 0 {
			continue
		}
		for p := inv.Linv.ColPtr[j]; p < inv.Linv.ColPtr[j+1]; p++ {
			ws[inv.Linv.RowIdx[p]] += rj * inv.Linv.Val[p]
		}
	}
	// out[u] = (U^{-1} row u) . ws.
	out := make([]float64, inv.N)
	for u := range out {
		acc := 0.0
		for p := inv.Uinv.RowPtr[u]; p < inv.Uinv.RowPtr[u+1]; p++ {
			acc += inv.Uinv.Val[p] * ws[inv.Uinv.ColIdx[p]]
		}
		out[u] = acc
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
	reused := invertColumns(cols, fronts, solveL, f.lowerColumn)
	if prev != nil {
		for j, solve := range solveL {
			if !solve {
				lo, hi := prev.Linv.ColPtr[j], prev.Linv.ColPtr[j+1]
				cols[j] = column{idx: prev.Linv.RowIdx[lo:hi], val: prev.Linv.Val[lo:hi]}
			}
		}
	}
	linv := assembleCSC(f.N, cols)
	reused += invertColumns(cols, fronts, solveU, f.upperColumn)
	var prevU *sparse.CSR
	if prev != nil {
		prevU = prev.Uinv
	}
	return &Inverse{N: f.N, Linv: linv, Uinv: assembleCSR(f.N, cols, solveU, prevU), Reused: reused}
}

// reach returns, per column j, whether the inverse column j's solve
// reads a dirty factor column: whether j is dirty or the pattern of the
// factor's column j (ptr/row, diagonal excluded) leads to such a
// column. The L^{-1} solve (lower) scatters down to higher rows, so the
// flags are settled from the last column back; the U^{-1} solve scatters
// up, so from the first forward. The stored patterns bound every row a
// solve can touch.
func (f *Factors) reach(ptr, row []int, lower bool) []bool {
	n := f.N
	out := make([]bool, n)
	for t := 0; t < n; t++ {
		j := t
		if lower {
			j = n - 1 - t
		}
		d := f.dirty[j]
		for p := ptr[j]; p < ptr[j+1] && !d; p++ {
			if i := row[p]; i != j {
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
	idx []int
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
	idx   []int
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
	idx []int
	val []float64
}

// minSlab is the smallest slab, in entries (256 KB of index and value).
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
	ws.idx = append(ws.idx, i)
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
		idx := make([]int, size)     //kdash:allow(hotalloc) slab refill: one per slab of entries, amortised over every column it holds, and reused by the next pass
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
				k := f.lRow[p]
				x[k] -= f.lVal[p] * xi
				touched[k>>6] |= 1 << (k & 63)
			}
			hi = max(hi, f.lRow[end-1]>>6) // rows ascending: the last is the largest
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
				k := f.uRow[p]
				x[k] -= f.uVal[p] * xi
				touched[k>>6] |= 1 << (k & 63)
			}
			lo = min(lo, f.uRow[start]>>6) // rows ascending: the first is the smallest
		}
	}
	return ws.finish()
}

// assembleCSC concatenates the computed columns into one CSC matrix.
func assembleCSC(n int, cols []column) *sparse.CSC {
	m := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j, c := range cols {
		m.ColPtr[j+1] = m.ColPtr[j] + len(c.idx)
	}
	m.RowIdx = make([]int, m.ColPtr[n])
	m.Val = make([]float64, m.ColPtr[n])
	for j, c := range cols {
		copy(m.RowIdx[m.ColPtr[j]:], c.idx)
		copy(m.Val[m.ColPtr[j]:], c.val)
	}
	return m
}

// assembleCSR lays the columns out by row — what converting
// assembleCSC's result to CSR would give, without the intermediate
// copy: visiting columns in ascending order leaves every row ascending,
// whatever the order of rows within a column. With prev, only the
// columns solved marks come from cols; every other column is prev's,
// and each row merges prev's row restricted to those columns with the
// solved columns' entries.
func assembleCSR(n int, cols []column, solved []bool, prev *sparse.CSR) *sparse.CSR {
	m := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for j, c := range cols {
		if prev == nil || solved[j] {
			for _, i := range c.idx {
				m.RowPtr[i+1]++
			}
		}
	}
	if prev != nil {
		for i := 0; i < n; i++ {
			for _, j := range prev.ColIdx[prev.RowPtr[i]:prev.RowPtr[i+1]] {
				if !solved[j] {
					m.RowPtr[i+1]++
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.ColIdx = make([]int, m.RowPtr[n])
	m.Val = make([]float64, m.RowPtr[n])
	next := slices.Clone(m.RowPtr[:n])
	for j, c := range cols {
		if prev != nil && !solved[j] {
			continue
		}
		for k, i := range c.idx {
			m.ColIdx[next[i]] = j
			m.Val[next[i]] = c.val[k]
			next[i]++
		}
	}
	if prev == nil {
		return m
	}
	// Each row now holds its solved entries, ascending, at the front of
	// its span: merge them with prev's, from the back, in place.
	for i := 0; i < n; i++ {
		at := m.RowPtr[i+1]
		s := next[i] // one past the row's last solved entry
		for p := prev.RowPtr[i+1] - 1; p >= prev.RowPtr[i]; p-- {
			j := prev.ColIdx[p]
			if solved[j] {
				continue
			}
			for s > m.RowPtr[i] && m.ColIdx[s-1] > j {
				at, s = at-1, s-1
				m.ColIdx[at], m.Val[at] = m.ColIdx[s], m.Val[s]
			}
			at--
			m.ColIdx[at], m.Val[at] = j, prev.Val[p]
		}
	}
	return m
}
