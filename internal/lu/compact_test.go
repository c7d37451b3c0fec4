package lu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdash/internal/sparse"
)

// CompactCSC, CompactCSR, CSC and CSR convert between the compact
// encoding and the plain int32 forms the tests compare it with. The
// plain form of L^{-1} holds its unit diagonal: every column opens with
// a 1 at its own row, which the encoding keeps implicit.

// CompactCSC encodes a square CSC matrix with ascending rows by column,
// each column opening with a 1 at its diagonal and holding no row from
// rows on, as a unit factor: the form of L^{-1}. The arrays are copied.
func CompactCSC(m *sparse.CSC, rows int) *Compact {
	ptr := make([]int, m.Cols+1)
	var ids []int32
	var val []float64
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		if lo == hi || int(m.RowIdx[lo]) != j || m.Val[lo] != 1 {
			panic(fmt.Sprintf("column %d does not open with its unit diagonal", j))
		}
		ids = append(ids, m.RowIdx[lo+1:hi]...)
		val = append(val, m.Val[lo+1:hi]...)
		ptr[j+1] = len(ids)
	}
	return compactLines(ptr, ids, val, rows, true)
}

// CompactCSR encodes a square CSR matrix with ascending columns by row,
// the form of U^{-1}. The arrays are copied.
func CompactCSR(m *sparse.CSR) *Compact {
	return compactLines(m.RowPtr, m.ColIdx, m.Val, m.Rows, false)
}

// compactLines encodes the lines ptr, ids and val delimit, the stored
// ids of a factor over ids below rows.
//
//kdash:mutates-factors
func compactLines(ptr []int, ids []int32, val []float64, rows int, unit bool) *Compact {
	n := len(ptr) - 1
	p32, e32 := make([]int32, n+1), make([]int32, n+1)
	for j := 0; j < n; j++ {
		p32[j+1] = int32(ptr[j+1])
		e32[j+1] = e32[j] + int32(escapes(j, ids[ptr[j]:ptr[j+1]]))
	}
	m := newCompact(p32, e32, rows, unit)
	for j := 0; j < n; j++ {
		m.put(j, ptr[j], int(e32[j]), ids[ptr[j]:ptr[j+1]])
	}
	copy(m.Val, val)
	return m
}

// decode returns the factor's lines as plain pointers, int32 ids and
// values, a unit factor's diagonal put back as each line's first entry.
func (c *Compact) decode() (ptr []int, ids []int32, val []float64) {
	ptr = make([]int, c.N+1)
	var buf []int
	for j := 0; j < c.N; j++ {
		if c.Unit {
			ids, val = append(ids, int32(j)), append(val, 1)
		}
		buf = c.Line(j, buf[:0])
		for _, id := range buf {
			ids = append(ids, int32(id))
		}
		val = append(val, c.Val[c.Ptr[j]:c.Ptr[j+1]]...)
		ptr[j+1] = len(ids)
	}
	return ptr, ids, val
}

// CSC decodes the factor as a CSC matrix, its lines as columns (L^{-1}'s
// form).
func (c *Compact) CSC() *sparse.CSC {
	ptr, ids, val := c.decode()
	return &sparse.CSC{Rows: c.N, Cols: c.N, ColPtr: ptr, RowIdx: ids, Val: val}
}

// CSR decodes the factor as a CSR matrix, its lines as rows (U^{-1}'s
// form).
func (c *Compact) CSR() *sparse.CSR {
	ptr, ids, val := c.decode()
	return &sparse.CSR{Rows: c.N, Cols: c.N, RowPtr: ptr, ColIdx: ids, Val: val}
}

// randomLines returns n random strictly ascending lines, line j's ids
// in [first(j), bound(j)) — the shape of an inverse factor's columns
// (L^{-1}, stored ids past the diagonal) or rows (U^{-1}) — with the
// cases the encoding escapes or special-cases: empty lines, one-entry
// lines, lines whose first entry is not their first possible id (among
// them first gaps from j-1 of exactly 255 and 256), and gaps of 256 and
// more (among them one of exactly 255 and one of exactly 256).
func randomLines(rng *rand.Rand, n int, first, bound func(j int) int) (ptr []int, ids []int32, val []float64) {
	ptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		var line []int32
		lo, hi := first(j), bound(j)
		switch {
		case lo >= hi:
		case rng.Intn(6) == 0: // empty
		case rng.Intn(5) == 0: // one entry, the first possible or far from it
			line = append(line, int32(lo+rng.Intn(hi-lo)))
		default:
			id := lo
			switch rng.Intn(4) { // the first entry is not the first possible
			case 0:
				id += rng.Intn(hi - lo)
			case 1:
				id = max(lo, j+254+rng.Intn(2)) // a first gap of 255 or 256
			}
			for id < hi {
				line = append(line, int32(id))
				switch rng.Intn(8) {
				case 0:
					id += 256 + rng.Intn(n)
				case 1:
					id += 255 + rng.Intn(2)
				default:
					id += 1 + rng.Intn(3)
				}
			}
		}
		for _, id := range line {
			ids = append(ids, id)
			val = append(val, rng.NormFloat64())
		}
		ptr[j+1] = len(ids)
	}
	return ptr, ids, val
}

// randomInverse returns random hand-built inverse factors over n rows
// of which the first rows are kept (the rest ghost rows): L^{-1}'s
// stored lines hold rows past their diagonal and below rows, U^{-1}'s
// rows below rows hold columns below rows. Both come with their plain
// forms built from the raw lines, not from the encoding: L^{-1}'s with
// its unit diagonal (row j, value 1) in front of each column's raw ids.
func randomInverse(rng *rand.Rand, n, rows int) (*Inverse, *sparse.CSC, *sparse.CSR) {
	lp, li, lv := randomLines(rng, n, func(j int) int { return j + 1 }, func(int) int { return rows })
	up, ui, uv := randomLines(rng, n, func(j int) int { return j }, func(j int) int {
		if j < rows {
			return rows
		}
		return n
	})
	inv := &Inverse{N: n, Linv: compactLines(lp, li, lv, rows, true), Uinv: compactLines(up, ui, uv, n, false)}
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(append(l.RowIdx, int32(j)), li[lp[j]:lp[j+1]]...)
		l.Val = append(append(l.Val, 1), lv[lp[j]:lp[j+1]]...)
		l.ColPtr[j+1] = len(l.RowIdx)
	}
	return inv, l, &sparse.CSR{Rows: n, Cols: n, RowPtr: up, ColIdx: ui, Val: uv}
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// plainSolveLower is SolveLower over a plain CSC L^{-1}.
func plainSolveLower(l *sparse.CSC, w *Workspace, idx []int, val []float64, perm []int32) {
	for t, u := range idx {
		v := val[t]
		if v == 0 {
			continue
		}
		j := perm[u]
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			r := l.RowIdx[p]
			if w.W[r] == 0 {
				w.Sup = append(w.Sup, int(r))
			}
			w.W[r] += v * l.Val[p]
		}
	}
}

// plainRowDot is UpperRowDot over a plain CSR U^{-1}.
func plainRowDot(u *sparse.CSR, row int, w []float64) float64 {
	acc := 0.0
	for p := u.RowPtr[row]; p < u.RowPtr[row+1]; p++ {
		acc += u.Val[p] * w[u.ColIdx[p]]
	}
	return acc
}

// plainSolve is Inverse.Solve over the plain forms.
func plainSolve(l *sparse.CSC, u *sparse.CSR, r []float64) []float64 {
	ws := make([]float64, len(r))
	for j, rj := range r {
		if rj == 0 {
			continue
		}
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			ws[l.RowIdx[p]] += rj * l.Val[p]
		}
	}
	out := make([]float64, len(r))
	for row := range out {
		out[row] = plainRowDot(u, row, ws)
	}
	return out
}

// checkKernelsMatchPlain runs every kernel that reads an encoded factor
// — SolveLower, UpperRowDot, PackUpperRows' Dot and the reference
// Solve — against its plain CSC/CSR form on random right-hand sides,
// and fails unless every result is bit for bit the plain one's.
func checkKernelsMatchPlain(t *testing.T, rng *rand.Rand, label string, inv *Inverse, l *sparse.CSC, u *sparse.CSR) {
	t.Helper()
	n := inv.N
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for trial := 0; trial < 8; trial++ {
		var idx []int
		var vals []float64
		r := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				idx = append(idx, i)
				v := rng.NormFloat64()
				if rng.Intn(5) == 0 {
					v = 0
				}
				vals = append(vals, v)
				r[perm[i]] = v
			}
		}
		got, want := inv.NewWorkspace(), inv.NewWorkspace()
		inv.SolveLower(got, idx, vals, perm)
		plainSolveLower(l, want, idx, vals, perm)
		if !slices.Equal(got.Sup, want.Sup) {
			t.Fatalf("%s trial %d: SolveLower support differs", label, trial)
		}
		for i := range got.W {
			if bits(got.W[i]) != bits(want.W[i]) {
				t.Fatalf("%s trial %d: SolveLower row %d is %v, plain %v", label, trial, i, got.W[i], want.W[i])
			}
		}
		rows := rng.Perm(n)[:1+rng.Intn(n)]
		packed := inv.PackUpperRows(rows)
		for k, row := range rows {
			want := plainRowDot(u, row, got.W)
			if d := inv.UpperRowDot(row, got.W); bits(d) != bits(want) {
				t.Fatalf("%s trial %d: UpperRowDot(%d) is %v, plain %v", label, trial, row, d, want)
			}
			if d := packed.Dot(k, got.W); bits(d) != bits(want) {
				t.Fatalf("%s trial %d: packed row %d dots to %v, plain %v", label, trial, row, d, want)
			}
		}
		gotY, wantY := inv.Solve(r), plainSolve(l, u, r)
		for i := range gotY {
			if bits(gotY[i]) != bits(wantY[i]) {
				t.Fatalf("%s trial %d: Solve row %d is %v, plain %v", label, trial, i, gotY[i], wantY[i])
			}
		}
	}
}

// TestCompactKernelsMatchPlain is the encoding's property test: on
// hand-built triangular patterns with escaped gaps, empty and one-entry
// lines, lines that do not start at their first possible id (among them
// L^{-1} lines whose first stored id is escaped or sits exactly one gap
// byte away), L^{-1} lines with no stored diagonal and blocks with and
// without ghost rows, and on the inverse of real factors with a
// positive drop tolerance, every kernel equals the plain int32 form —
// L^{-1}'s with its unit diagonal put back — bit for bit, the encoding
// validates and decodes back to the raw lines it encoded, and only gaps
// outside [1, 255] are escaped.
func TestCompactKernelsMatchPlain(t *testing.T) {
	firstGaps := map[int]int{} // L^{-1} first stored gaps from j-1 of 255, 256 and past
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(900)
		rows := n
		if seed%2 == 0 {
			rows = n - 1 - rng.Intn(min(n, 3)) // one ghost row or a few, or none of n kept
		}
		inv, l, u := randomInverse(rng, n, rows)
		if got := inv.Linv.CSC(); !slices.Equal(got.ColPtr, l.ColPtr) || !slices.Equal(got.RowIdx, l.RowIdx) || !sameBits(got.Val, l.Val) {
			t.Fatalf("seed %d: L^-1 does not decode to its raw lines", seed)
		}
		if got := inv.Uinv.CSR(); !slices.Equal(got.RowPtr, u.RowPtr) || !slices.Equal(got.ColIdx, u.ColIdx) || !sameBits(got.Val, u.Val) {
			t.Fatalf("seed %d: U^-1 does not decode to its raw lines", seed)
		}
		for _, f := range []struct {
			name string
			m    *Compact
			ptr  []int
			ids  []int32
			diag int // plain entries in front of each line the encoding keeps implicit
		}{
			{"L^-1", inv.Linv, l.ColPtr, l.RowIdx, 1},
			{"U^-1", inv.Uinv, u.RowPtr, u.ColIdx, 0},
		} {
			if err := f.m.Validate(f.name); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			escape, stored := 0, 0
			for j := 0; j < n; j++ {
				prev := j - 1
				for k, id := range f.ids[f.ptr[j]+f.diag : f.ptr[j+1]] {
					if g := int(id) - prev; g > 255 {
						escape++
						if f.diag == 1 && k == 0 {
							firstGaps[min(g, 257)]++
						}
					} else if f.diag == 1 && k == 0 && g == 255 {
						firstGaps[g]++
					}
					if f.diag == 1 && (int(id) <= j || int(id) >= rows) {
						t.Fatalf("seed %d: %s line %d stores id %d (rows %d)", seed, f.name, j, id, rows)
					}
					prev = int(id)
					stored++
				}
			}
			if len(f.m.Esc) != escape || len(f.m.Gap) != stored {
				t.Fatalf("seed %d: %s holds %d escapes and %d gaps, want %d and %d", seed, f.name, len(f.m.Esc), len(f.m.Gap), escape, stored)
			}
		}
		checkKernelsMatchPlain(t, rng, "hand-built", inv, l, u)
	}
	if firstGaps[255] == 0 || firstGaps[256] == 0 || firstGaps[257] == 0 {
		t.Fatalf("L^-1 first gaps of 255, 256 and past 256 drawn %d, %d and %d times, want each", firstGaps[255], firstGaps[256], firstGaps[257])
	}
	dropped := false
	for k, w := range bitInputs() {
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		inv := mustInvert(fac, Options{DropTol: 1e-3, Workers: 2})
		exact := mustInvert(fac, Options{Workers: 1})
		dropped = dropped || inv.NNZ() < exact.NNZ()
		rng := rand.New(rand.NewSource(int64(k)))
		checkKernelsMatchPlain(t, rng, "dropped", inv, inv.Linv.CSC(), inv.Uinv.CSR())
	}
	if !dropped {
		t.Fatal("the drop tolerance removed no entry on any input")
	}
}

// TestLinePointersRefuseInt32Overflow: a factor whose entries would
// pass math.MaxInt32 is refused, since its pointers are int32; one that
// reaches it exactly is not.
func TestLinePointersRefuseInt32Overflow(t *testing.T) {
	if err := linePointers([]int32{0, math.MaxInt32 - 1, 1}, make([]int32, 3), "L^-1"); err != nil {
		t.Fatalf("a factor of exactly MaxInt32 entries: %v", err)
	}
	if err := linePointers([]int32{0, math.MaxInt32, 1}, make([]int32, 3), "L^-1"); err == nil {
		t.Fatal("a factor past MaxInt32 entries was accepted")
	}
	ptr, escPtr := []int32{0, 2, 0, 3}, []int32{0, 1, 0, 2}
	if err := linePointers(ptr, escPtr, "L^-1"); err != nil || !slices.Equal(ptr, []int32{0, 2, 2, 5}) || !slices.Equal(escPtr, []int32{0, 1, 1, 3}) {
		t.Fatalf("pointers %v and %v, error %v", ptr, escPtr, err)
	}
}

// TestCompactRefusesHostileLines: Validate refuses every encoding a
// kernel could fault on or decode wrongly — an id past N or in a ghost
// row, a row bound past N, a unit line that stores its diagonal, an
// escaped id that repeats or undercuts its predecessor, a gap byte 0
// with no escape left, an escape no gap consumes, and int32 pointer
// arrays of the wrong length or order, negative or past their array.
// Its fixtures are heap copies it corrupts on purpose.
//
//kdash:mutates-factors
func TestCompactRefusesHostileLines(t *testing.T) {
	inv, _, _ := randomInverse(rand.New(rand.NewSource(3)), 600, 599)
	good := inv.Linv
	if err := good.Validate("good"); err != nil {
		t.Fatal(err)
	}
	long := 0 // a line of two entries or more, the second one escaped
	for ; long < good.N; long++ {
		p := good.Ptr[long]
		if good.Ptr[long+1]-p >= 2 && good.Gap[p+1] == 0 {
			break
		}
	}
	if long == good.N {
		t.Fatal("no line escapes its second entry")
	}
	clone := func() *Compact {
		return &Compact{N: good.N, Rows: good.Rows, Unit: true, Ptr: slices.Clone(good.Ptr), Gap: slices.Clone(good.Gap), EscPtr: slices.Clone(good.EscPtr), Esc: slices.Clone(good.Esc), Val: slices.Clone(good.Val)}
	}
	second := func(m *Compact) int { // the escape of line long's second entry
		if m.Gap[m.Ptr[long]] == 0 {
			return int(m.EscPtr[long]) + 1
		}
		return int(m.EscPtr[long])
	}
	first := 0 // a line whose first entry is escaped
	for ; first < good.N && (good.Ptr[first] == good.Ptr[first+1] || good.Gap[good.Ptr[first]] != 0); first++ {
	}
	if first == good.N {
		t.Fatal("no line escapes its first entry")
	}
	gapped := 0 // a line whose first entry is a gap byte
	for ; gapped < good.N && (good.Ptr[gapped] == good.Ptr[gapped+1] || good.Gap[good.Ptr[gapped]] == 0); gapped++ {
	}
	if gapped == good.N {
		t.Fatal("no line stores its first entry as a gap byte")
	}
	for name, edit := range map[string]func(m *Compact){
		"id past n":              func(m *Compact) { m.Esc[second(m)] = int32(m.N) },
		"id in a ghost row":      func(m *Compact) { m.Esc[second(m)] = int32(m.Rows) },
		"rows past n":            func(m *Compact) { m.Rows = m.N + 1 },
		"stored unit diagonal":   func(m *Compact) { m.Esc[m.EscPtr[first]] = int32(first) },
		"unit diagonal as a gap": func(m *Compact) { m.Gap[m.Ptr[gapped]] = 1 },
		"escape repeats an id":   func(m *Compact) { m.Esc[second(m)] = int32(m.Line(long, nil)[0]) },
		"escape below the first": func(m *Compact) { m.Esc[second(m)] = -1 },
		"gap without an escape": func(m *Compact) {
			m.Esc = m.Esc[:len(m.Esc)-1]
			for j := range m.EscPtr {
				m.EscPtr[j] = min(m.EscPtr[j], int32(len(m.Esc)))
			}
		},
		"escape never consumed": func(m *Compact) {
			m.Esc = append(m.Esc, 0)
			m.EscPtr[m.N]++
		},
		"gap overrun":           func(m *Compact) { m.Gap[m.Ptr[m.N]-1] = 255 },
		"short gaps":            func(m *Compact) { m.Gap = m.Gap[:len(m.Gap)-1] },
		"escape pointer down":   func(m *Compact) { m.EscPtr[long+1] = m.EscPtr[long] - 1 },
		"pointer down":          func(m *Compact) { m.Ptr[long+1] = m.Ptr[long] - 1 },
		"negative pointer":      func(m *Compact) { m.Ptr[1] = -1 },
		"pointer past the gaps": func(m *Compact) { m.Ptr[long+1] = int32(len(m.Gap) + 1) },
		"negative escape pointer": func(m *Compact) {
			m.EscPtr[1] = math.MinInt32
		},
	} {
		m := clone()
		edit(m)
		if err := m.Validate("hostile"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
