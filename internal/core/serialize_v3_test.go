package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"kdash/internal/gen"
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
	before := ix.linv.Val[0]
	faulted := func() (r any) {
		defer func() { r = recover() }()
		ix.linv.Val[0] = before + 1 //kdash:allow(rofactors) the write this test proves the MMU refuses
		return nil
	}()
	if faulted == nil {
		t.Fatal("a write through a loaded factor slice did not fault")
	}
	if ix.linv.Val[0] != before {
		t.Fatalf("factor changed from %v to %v", before, ix.linv.Val[0])
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
		add := func(id uint32, xs []int) {
			if id != skip {
				w.AddInts(id, xs)
			}
		}
		addID := func(id uint32, xs []int32) {
			if id != skip {
				w.AddInt32s(id, xs)
			}
		}
		addF := func(id uint32, xs []float64) {
			if id != skip {
				w.AddFloats(id, xs)
			}
		}
		addID(secPerm, ix.perm)
		add(secLinvColPtr, ix.linv.ColPtr)
		addID(secLinvRowIdx, ix.linv.RowIdx)
		addF(secLinvVal, ix.linv.Val)
		add(secUinvRowPtr, ix.uinv.RowPtr)
		addID(secUinvColIdx, ix.uinv.ColIdx)
		addF(secUinvVal, ix.uinv.Val)
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
			bad := append([]int(nil), ix.linv.ColPtr...)
			bad[len(bad)-1]++ // endpoint disagrees with the index array
			w.AddInts(secLinvColPtr, bad)
		}, "L-inverse pointers"},
		{"out-of-range row index", withID(secLinvRowIdx, ix.linv.RowIdx, int32(ix.n)+5), "row index"},
		{"row id n", withID(secLinvRowIdx, ix.linv.RowIdx, int32(ix.n)), "L-inverse row index"},
		{"negative row id", withID(secLinvRowIdx, ix.linv.RowIdx, -1), "L-inverse row index -1"},
		{"negative column id", withID(secUinvColIdx, ix.uinv.ColIdx, math.MinInt32), "U-inverse column index"},
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
	width := map[uint32]int64{mmapio.KindInt64: 8, mmapio.KindFloat64: 8, mmapio.KindInt32: 4}
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
