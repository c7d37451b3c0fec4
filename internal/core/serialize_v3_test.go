package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

// saveToFile writes the index in v3 form to a temp file.
func saveToFile(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSameAnswers fails unless both indexes answer a query battery
// bit-identically.
func assertSameAnswers(t *testing.T, want, got *Index, label string) {
	t.Helper()
	for _, q := range []int{0, want.N() / 3, want.N() - 1} {
		a, _, err := want.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := got.TopK(q, 8)
		if err != nil {
			t.Fatalf("%s: TopK: %v", label, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s q=%d: %d vs %d results", label, q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s q=%d rank %d: %v vs %v", label, q, i, a[i], b[i])
			}
		}
		va, err := want.ProximityVector(q)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := got.ProximityVector(q)
		if err != nil {
			t.Fatalf("%s: ProximityVector: %v", label, err)
		}
		for i := range va {
			if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
				t.Fatalf("%s q=%d: proximity[%d] differs: %v vs %v", label, q, i, va[i], vb[i])
			}
		}
	}
}

// TestV3LoadPathsBitIdentical pins the acceptance contract: an index
// saved and reopened with OpenIndexFile answers every query with the
// built index's bits.
func TestV3LoadPathsBitIdentical(t *testing.T) {
	g := gen.PlantedPartition(150, 5, 0.2, 0.01, 3)
	built, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	fromFile, err := OpenIndexFile(saveToFile(t, built))
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Searchable() {
		t.Fatal("a loaded file holds an adjacency")
	}
	assertSameAnswers(t, built, withAdjacency(fromFile, built), "v3 file")
	if err := fromFile.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// openSealed opens the saved index, hands it the built adjacency
// (withAdjacency) and skips the test where the
// platform keeps loads on the Go heap, so its arrays are not sealed.
func openSealed(t *testing.T, built *Index) *Index {
	t.Helper()
	ix, err := OpenIndexFile(saveToFile(t, built))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.backing.OffHeap() {
		t.Skip("loads stay on the Go heap on this platform")
	}
	return withAdjacency(ix, built)
}

// TestLoadedQueriesNeverWriteFactors is the mutation-discipline
// enforcement test: the index's arrays alias sealed PROT_READ memory, so
// if any query path wrote a factor array the process would fault, not
// just fail an assertion. It drives every query surface, concurrently,
// to flush out writes hiding behind pooling.
func TestLoadedQueriesNeverWriteFactors(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.15, 0.02, 11)
	built, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ix := openSealed(t, built)
	defer ix.Close()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for q := w; q < ix.N(); q += 4 {
				if _, _, err := ix.TopK(q, 5); err != nil {
					done <- err
					return
				}
				if _, err := ix.ProximityVector(q); err != nil {
					done <- err
					return
				}
				if _, err := ix.Proximity(q, (q+7)%ix.N()); err != nil {
					done <- err
					return
				}
			}
			if _, _, err := ix.Search(w, SearchOptions{K: 4, Exclude: map[int]bool{w: true}}); err != nil {
				done <- err
				return
			}
			_, _, err := ix.TopKPersonalized(map[int]float64{w: 1, w + 1: 2}, 3)
			done <- err
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r := make([]float64, ix.N())
	r[3] = 1
	if _, err := ix.Solve(r); err != nil {
		t.Fatal(err)
	}
}

// TestLoadedFactorsFaultOnWrite shows the read-only factor discipline
// enforced by the MMU: a loaded index lives in sealed off-heap memory,
// so a write through a factor slice faults — a panic under
// SetPanicOnFault — and leaves the factors as they were.
func TestLoadedFactorsFaultOnWrite(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.02, 5)
	built, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix := openSealed(t, built)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	before := ix.inv.Linv.Val[0]
	faulted := func() (r any) {
		defer func() { r = recover() }()
		ix.inv.Linv.Val[0] = before + 1 //kdash:allow(rofactors) the write this test proves the MMU refuses
		return nil
	}()
	if faulted == nil {
		t.Fatal("a write through a loaded factor slice did not fault")
	}
	if ix.inv.Linv.Val[0] != before {
		t.Fatalf("factor changed from %v to %v", before, ix.inv.Linv.Val[0])
	}
	assertSameAnswers(t, built, ix, "sealed")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV3CorruptSections exercises core-level rejection of structurally
// broken containers (mmapio-level corruption — truncated tables,
// misaligned offsets, checksums — has its own tests in
// internal/mmapio).
func TestV3CorruptSections(t *testing.T) {
	g := gen.ErdosRenyi(25, 80, 5)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type mutate func(w *mmapio.Writer)
	full := func(w *mmapio.Writer, skip uint32, meta []byte) {
		if skip != secMeta {
			if meta == nil {
				meta = ix.metaBytes()
			}
			w.AddBytes(secMeta, meta)
		}
		writeSections(w, skip, ix.perm, ix.inv.Linv, ix.inv.Uinv)
	}
	// withFactors writes a container whose inverse factors are copies
	// that edit has corrupted.
	withFactors := func(edit func(l, u *lu.Compact)) mutate {
		return func(w *mmapio.Writer) {
			w.AddBytes(secMeta, ix.metaBytes())
			l, u := cloneCompact(ix.inv.Linv), cloneCompact(ix.inv.Uinv)
			edit(l, u)
			writeSections(w, 0, ix.perm, l, u)
		}
	}
	// withID replaces id section sec by a copy with entry 0 set to v.
	withID := func(sec uint32, xs []int32, v int32) mutate {
		return func(w *mmapio.Writer) {
			full(w, sec, nil)
			bad := append([]int32(nil), xs...)
			bad[0] = v
			w.AddInt32s(sec, bad)
		}
	}
	last := ix.n - 1 // L^-1's last column holds its diagonal alone
	if l := ix.inv.Linv; l.Ptr[last+1]-l.Ptr[last] != 1 || l.Gap[l.Ptr[last]] != 1 {
		t.Fatalf("L^-1 column %d is not its diagonal alone", last)
	}
	long := 0 // a U^-1 row of two entries or more
	for u := ix.inv.Uinv; u.Ptr[long+1]-u.Ptr[long] < 2; {
		long++
	}
	badMeta := ix.metaBytes()
	copy(badMeta, "WRONGTAG")
	hugeN := ix.metaBytes()
	hugeN[8] = 0xff // n = garbage
	hugeN[15] = 0xff
	pastInt32 := ix.metaBytes()
	binary.LittleEndian.PutUint64(pastInt32[8:], math.MaxInt32+1)
	cases := []struct {
		name string
		mk   mutate
		want string
	}{
		{"missing meta", func(w *mmapio.Writer) { full(w, secMeta, nil) }, "missing section"},
		{"bad meta tag", func(w *mmapio.Writer) { full(w, 0, badMeta) }, "bad meta"},
		{"absurd n", func(w *mmapio.Writer) { full(w, 0, hugeN) }, "corrupt index"},
		{"n past int32", func(w *mmapio.Writer) { full(w, 0, pastInt32) }, "corrupt index"},
		{"missing perm", func(w *mmapio.Writer) { full(w, secPerm, nil) }, "missing section"},
		{"missing factor values", func(w *mmapio.Writer) { full(w, secUinvVal, nil) }, "missing section"},
		{"short perm", func(w *mmapio.Writer) {
			full(w, secPerm, nil)
			w.AddInt32s(secPerm, ix.perm[:len(ix.perm)-1])
		}, "per-node sections"},
		{"int64 perm", func(w *mmapio.Writer) {
			full(w, secPerm, nil)
			w.AddInts(secPerm, make([]int, ix.n))
		}, "want 6"},
		{"broken colptr", func(w *mmapio.Writer) {
			full(w, secLinvColPtr, nil)
			bad := append([]int(nil), ix.inv.Linv.Ptr...)
			bad[len(bad)-1]++ // endpoint disagrees with the index array
			w.AddInts(secLinvColPtr, bad)
		}, "L-inverse pointers"},
		{"out-of-range row index", withFactors(func(l, u *lu.Compact) { l.Gap[l.Ptr[last]] = 255 }), "L-inverse line"},
		{"row id n", withFactors(func(l, u *lu.Compact) { l.Gap[l.Ptr[last]] = 2 }), fmt.Sprintf("L-inverse line %d id %d outside", last, ix.n)},
		{"negative row id", withFactors(func(l, u *lu.Compact) { escapeEntry(l, 0, 0, -1) }), "L-inverse line 0 escaped id -1"},
		{"negative column id", withFactors(func(l, u *lu.Compact) { escapeEntry(u, 0, 0, math.MinInt32) }), "U-inverse line 0 escaped id -2147483648"},
		{"escaped id repeats", withFactors(func(l, u *lu.Compact) { escapeEntry(u, long, 1, int32(long)) }), fmt.Sprintf("U-inverse line %d escaped id %d does not ascend", long, long)},
		{"escape not listed", withFactors(func(l, u *lu.Compact) { l.Gap[l.Ptr[last]] = 0 }), "escapes more ids"},
		{"escape not consumed", withFactors(func(l, u *lu.Compact) {
			l.Esc = append(l.Esc, int32(last))
			l.EscPtr[ix.n]++
		}), fmt.Sprintf("L-inverse line %d escapes 0 ids, 1 listed", last)},
		{"broken escape pointers", withFactors(func(l, u *lu.Compact) { u.EscPtr[ix.n]++ }), "U-inverse escape pointers"},
		{"negative perm id", withID(secPerm, ix.perm, -1), "not a permutation"},
		{"perm id n", withID(secPerm, ix.perm, int32(ix.n)), "not a permutation"},
		{"non-permutation", withID(secPerm, ix.perm, ix.perm[1]), "not a permutation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := mmapio.NewWriter()
			tc.mk(w)
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := openBytes(t, buf.Bytes())
			if err == nil {
				t.Fatal("corrupt container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestArrayBytesIsSavedPayload pins the heap account of a built index
// to what Save writes: arrayBytes equals the summed payload of every
// section but the meta one, each counted at its kind's width as the
// section table records it. The adjacency a monolithic index keeps for
// its search is not saved, and not counted.
func TestArrayBytesIsSavedPayload(t *testing.T) {
	g := gen.PlantedPartition(150, 5, 0.2, 0.01, 3)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data, le := buf.Bytes(), binary.LittleEndian
	width := map[uint32]int64{mmapio.KindInt64: 8, mmapio.KindFloat64: 8, mmapio.KindInt32: 4, mmapio.KindBytes: 1}
	var payload int64
	for i := uint32(0); i < le.Uint32(data[12:]); i++ {
		e := data[32+32*i:]
		if le.Uint32(e) == secMeta {
			continue
		}
		w, ok := width[le.Uint32(e[4:])]
		if !ok {
			t.Fatalf("section %d has kind %d", le.Uint32(e), le.Uint32(e[4:]))
		}
		payload += w * int64(le.Uint64(e[16:]))
	}
	if got := ix.arrayBytes(); got != payload {
		t.Fatalf("arrayBytes = %d, Save wrote %d bytes of arrays", got, payload)
	}
}

// writeSections adds the permutation and the inverse factors l and u to
// w, every section but skip.
func writeSections(w *mmapio.Writer, skip uint32, perm []int32, l, u *lu.Compact) {
	if skip != secPerm {
		w.AddInt32s(secPerm, perm)
	}
	for _, f := range []struct {
		m                      *lu.Compact
		ptr, val, gap, ep, esc uint32
	}{
		{l, secLinvColPtr, secLinvVal, secLinvGap, secLinvEscPtr, secLinvEsc},
		{u, secUinvRowPtr, secUinvVal, secUinvGap, secUinvEscPtr, secUinvEsc},
	} {
		adds := []struct {
			id  uint32
			add func()
		}{
			{f.ptr, func() { w.AddInts(f.ptr, f.m.Ptr) }},
			{f.val, func() { w.AddFloats(f.val, f.m.Val) }},
			{f.gap, func() { w.AddBytes(f.gap, f.m.Gap) }},
			{f.ep, func() { w.AddInts(f.ep, f.m.EscPtr) }},
			{f.esc, func() { w.AddInt32s(f.esc, f.m.Esc) }},
		}
		for _, a := range adds {
			if a.id != skip {
				a.add()
			}
		}
	}
}

// cloneCompact returns a heap copy of m that a test may corrupt.
func cloneCompact(m *lu.Compact) *lu.Compact {
	return &lu.Compact{N: m.N, Ptr: slices.Clone(m.Ptr), Gap: slices.Clone(m.Gap), EscPtr: slices.Clone(m.EscPtr), Esc: slices.Clone(m.Esc), Val: slices.Clone(m.Val)}
}

// escapeEntry stores entry k of line j of m as an escape of id: its gap
// byte becomes 0 and id joins the line's escapes after those of the
// line's earlier entries.
func escapeEntry(m *lu.Compact, j, k int, id int32) {
	p, at := m.Ptr[j]+k, m.EscPtr[j]
	for q := m.Ptr[j]; q < p; q++ {
		if m.Gap[q] == 0 {
			at++
		}
	}
	if m.Gap[p] == 0 {
		m.Esc[at] = id
		return
	}
	m.Gap[p] = 0
	m.Esc = slices.Insert(m.Esc, at, id)
	for i := j + 1; i <= m.N; i++ {
		m.EscPtr[i]++
	}
}
