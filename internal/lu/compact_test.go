package lu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdash/internal/sparse"
)

// CompactCSC, CompactCSR, CSC and CSR convert between the compact
// encoding and the plain int32 forms the tests compare it with.

// CompactCSC encodes a square CSC matrix with ascending rows by column,
// the form of L^{-1}. The arrays are copied.
func CompactCSC(m *sparse.CSC) *Compact { return compactLines(m.ColPtr, m.RowIdx, m.Val) }

// CompactCSR encodes a square CSR matrix with ascending columns by row,
// the form of U^{-1}. The arrays are copied.
func CompactCSR(m *sparse.CSR) *Compact { return compactLines(m.RowPtr, m.ColIdx, m.Val) }

func compactLines(ptr []int, ids []int32, val []float64) *Compact {
	lines := make([]column, len(ptr)-1)
	for j := range lines {
		lines[j] = column{idx: ids[ptr[j]:ptr[j+1]], val: val[ptr[j]:ptr[j+1]]}
	}
	return assembleLines(lines, nil, nil)
}

// decode returns the factor's lines as plain pointers, int32 ids and
// (shared) values.
func (c *Compact) decode() (ptr []int, ids []int32, val []float64) {
	ids = make([]int32, 0, len(c.Gap))
	var buf []int
	for j := 0; j < c.N; j++ {
		buf = c.Line(j, buf[:0])
		for _, id := range buf {
			ids = append(ids, int32(id))
		}
	}
	return c.Ptr, ids, c.Val
}

// CSC decodes the factor as a CSC matrix, its lines as columns (L^{-1}'s
// form), sharing Ptr and Val.
func (c *Compact) CSC() *sparse.CSC {
	ptr, ids, val := c.decode()
	return &sparse.CSC{Rows: c.N, Cols: c.N, ColPtr: ptr, RowIdx: ids, Val: val}
}

// CSR decodes the factor as a CSR matrix, its lines as rows (U^{-1}'s
// form), sharing Ptr and Val.
func (c *Compact) CSR() *sparse.CSR {
	ptr, ids, val := c.decode()
	return &sparse.CSR{Rows: c.N, Cols: c.N, RowPtr: ptr, ColIdx: ids, Val: val}
}

// randomLines returns n random strictly ascending lines over [0, n),
// line j starting at or after j — the shape of an inverse factor's
// columns (L^{-1}) or rows (U^{-1}) — with the cases the encoding
// escapes or special-cases: empty lines, one-entry lines, lines whose
// first entry is not the diagonal, and gaps of 256 and more (among them
// one of exactly 255 and one of exactly 256).
func randomLines(rng *rand.Rand, n int) (ptr []int, ids []int32, val []float64) {
	ptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		var line []int32
		switch rng.Intn(6) {
		case 0: // empty
		case 1: // one entry, the diagonal or far from it
			line = append(line, int32(j+rng.Intn(n-j)))
		default:
			id := j
			if rng.Intn(3) == 0 {
				id += rng.Intn(n - j) // the first entry is not the diagonal
			}
			for id < n {
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
// lines and lines that do not start at their diagonal, and on the
// inverse of real factors with a positive drop tolerance, every kernel
// equals the plain int32 form bit for bit, the encoding decodes back to
// the plain arrays and validates, and only gaps outside [1, 255] are
// escaped.
func TestCompactKernelsMatchPlain(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(900)
		lp, li, lv := randomLines(rng, n)
		up, ui, uv := randomLines(rng, n)
		l := &sparse.CSC{Rows: n, Cols: n, ColPtr: lp, RowIdx: li, Val: lv}
		u := &sparse.CSR{Rows: n, Cols: n, RowPtr: up, ColIdx: ui, Val: uv}
		inv := &Inverse{N: n, Linv: CompactCSC(l), Uinv: CompactCSR(u)}
		for _, f := range []struct {
			name   string
			m      *Compact
			ptr    []int
			ids    []int32
			escape int
		}{
			{"L^-1", inv.Linv, lp, li, 0},
			{"U^-1", inv.Uinv, up, ui, 0},
		} {
			if err := f.m.Validate(f.name); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			plain := f.m.CSC()
			if !slices.Equal(plain.ColPtr, f.ptr) || !slices.Equal(plain.RowIdx, f.ids) {
				t.Fatalf("seed %d: %s does not decode to its plain ids", seed, f.name)
			}
			for j := 0; j < n; j++ {
				f.escape += escapes(j, f.ids[f.ptr[j]:f.ptr[j+1]])
			}
			if len(f.m.Esc) != f.escape || len(f.m.Gap) != len(f.ids) {
				t.Fatalf("seed %d: %s holds %d escapes and %d gaps, want %d and %d", seed, f.name, len(f.m.Esc), len(f.m.Gap), f.escape, len(f.ids))
			}
		}
		checkKernelsMatchPlain(t, rng, "hand-built", inv, l, u)
	}
	dropped := false
	for k, w := range bitInputs() {
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		inv := fac.Invert(Options{DropTol: 1e-3, Workers: 2})
		exact := fac.Invert(Options{Workers: 1})
		dropped = dropped || inv.NNZ() < exact.NNZ()
		rng := rand.New(rand.NewSource(int64(k)))
		checkKernelsMatchPlain(t, rng, "dropped", inv, inv.Linv.CSC(), inv.Uinv.CSR())
	}
	if !dropped {
		t.Fatal("the drop tolerance removed no entry on any input")
	}
}

// TestCompactRefusesHostileLines: Validate refuses every encoding a
// kernel could fault on or decode wrongly — an id past N, an escaped
// id that repeats or undercuts its predecessor, a gap byte 0 with no
// escape left, an escape no gap consumes, and pointer arrays of the
// wrong length or order. Its fixtures are heap copies it corrupts on
// purpose.
//
//kdash:mutates-factors
func TestCompactRefusesHostileLines(t *testing.T) {
	ptr, ids, val := randomLines(rand.New(rand.NewSource(3)), 600)
	good := CompactCSC(&sparse.CSC{Rows: 600, Cols: 600, ColPtr: ptr, RowIdx: ids, Val: val})
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
		return &Compact{N: good.N, Ptr: slices.Clone(good.Ptr), Gap: slices.Clone(good.Gap), EscPtr: slices.Clone(good.EscPtr), Esc: slices.Clone(good.Esc), Val: slices.Clone(good.Val)}
	}
	second := func(m *Compact) int { // the escape of line long's second entry
		if m.Gap[m.Ptr[long]] == 0 {
			return m.EscPtr[long] + 1
		}
		return m.EscPtr[long]
	}
	for name, edit := range map[string]func(m *Compact){
		"id past n":              func(m *Compact) { m.Esc[second(m)] = int32(m.N) },
		"escape repeats an id":   func(m *Compact) { m.Esc[second(m)] = int32(m.Line(long, nil)[0]) },
		"escape below the first": func(m *Compact) { m.Esc[second(m)] = -1 },
		"gap without an escape": func(m *Compact) {
			m.Esc = m.Esc[:len(m.Esc)-1]
			for j := range m.EscPtr {
				m.EscPtr[j] = min(m.EscPtr[j], len(m.Esc))
			}
		},
		"escape never consumed": func(m *Compact) {
			m.Esc = append(m.Esc, 0)
			m.EscPtr[m.N]++
		},
		"gap overrun":         func(m *Compact) { m.Gap[m.Ptr[m.N]-1] = 255 },
		"short gaps":          func(m *Compact) { m.Gap = m.Gap[:len(m.Gap)-1] },
		"escape pointer down": func(m *Compact) { m.EscPtr[long+1] = m.EscPtr[long] - 1 },
	} {
		m := clone()
		edit(m)
		if err := m.Validate("hostile"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
