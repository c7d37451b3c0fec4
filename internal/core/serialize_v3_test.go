package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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

// TestV3LoadPathsBitIdentical pins the acceptance contract: the same
// index loaded through the v3 stream, a v3 copy-mode open and (where
// supported) a v3 mmap open answers every query with identical bits.
func TestV3LoadPathsBitIdentical(t *testing.T) {
	g := gen.PlantedPartition(150, 5, 0.2, 0.01, 3)
	built, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	var v3 bytes.Buffer
	if err := built.Save(&v3); err != nil {
		t.Fatal(err)
	}
	fromStream, err := LoadIndex(&v3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, built, fromStream, "v3 stream")

	path := saveToFile(t, built)
	fromCopy, err := OpenIndexFile(path, mmapio.ModeCopy)
	if err != nil {
		t.Fatal(err)
	}
	if fromCopy.Mapped() {
		t.Fatal("ModeCopy produced a mapped index")
	}
	assertSameAnswers(t, built, fromCopy, "v3 copy")
	if fromCopy.MappedBytes() != 0 {
		t.Fatalf("copy-mode index reports %d mapped bytes, want 0", fromCopy.MappedBytes())
	}

	if mmapio.MmapSupported() && mmapio.CanZeroCopy() {
		fromMmap, err := OpenIndexFile(path, mmapio.ModeMmap)
		if err != nil {
			t.Fatal(err)
		}
		if !fromMmap.Mapped() {
			t.Fatal("ModeMmap produced an unmapped index")
		}
		if fromMmap.MappedBytes() == 0 {
			t.Fatal("mapped index reports no mapped bytes")
		}
		assertSameAnswers(t, built, fromMmap, "v3 mmap")
		if err := fromMmap.VerifyFile(); err != nil {
			t.Fatalf("VerifyFile: %v", err)
		}
		if err := fromMmap.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestMmapQueriesNeverWriteFactors is the mutation-discipline
// enforcement test: the index's arrays alias a PROT_READ mapping, so if
// any query path wrote a factor array the process would fault, not just
// fail an assertion. It drives every query surface, concurrently, to
// flush out writes hiding behind pooling.
func TestMmapQueriesNeverWriteFactors(t *testing.T) {
	if !mmapio.MmapSupported() || !mmapio.CanZeroCopy() {
		t.Skip("mmap unsupported on this platform")
	}
	g := gen.PlantedPartition(200, 4, 0.15, 0.02, 11)
	built, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexFile(saveToFile(t, built), mmapio.ModeMmap)
	if err != nil {
		t.Fatal(err)
	}
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
			if _, _, err := ix.TopKBatch([]int{w, w + 4, w + 8}, 4); err != nil {
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
		addF := func(id uint32, xs []float64) {
			if id != skip {
				w.AddFloats(id, xs)
			}
		}
		add(secPerm, ix.perm)
		add(secInvPerm, ix.inv)
		add(secAColPtr, ix.a.ColPtr)
		add(secARowIdx, ix.a.RowIdx)
		addF(secAVal, ix.a.Val)
		add(secLinvColPtr, ix.linv.ColPtr)
		add(secLinvRowIdx, ix.linv.RowIdx)
		addF(secLinvVal, ix.linv.Val)
		add(secUinvRowPtr, ix.uinv.RowPtr)
		add(secUinvColIdx, ix.uinv.ColIdx)
		addF(secUinvVal, ix.uinv.Val)
		addF(secAmaxCol, ix.amaxCol)
		addF(secSelfA, ix.selfA)
	}
	badMeta := ix.metaBytes()
	copy(badMeta, "WRONGTAG")
	hugeN := ix.metaBytes()
	hugeN[8] = 0xff // n = garbage
	hugeN[15] = 0xff
	cases := []struct {
		name string
		mk   mutate
		want string
	}{
		{"missing meta", func(w *mmapio.Writer) { full(w, secMeta, nil) }, "missing section"},
		{"bad meta tag", func(w *mmapio.Writer) { full(w, 0, badMeta) }, "bad meta"},
		{"absurd n", func(w *mmapio.Writer) { full(w, 0, hugeN) }, "corrupt index"},
		{"missing perm", func(w *mmapio.Writer) { full(w, secPerm, nil) }, "missing section"},
		{"missing factor values", func(w *mmapio.Writer) { full(w, secUinvVal, nil) }, "missing section"},
		{"short perm", func(w *mmapio.Writer) {
			full(w, secPerm, nil)
			w.AddInts(secPerm, ix.perm[:len(ix.perm)-1])
		}, "per-node sections"},
		{"broken colptr", func(w *mmapio.Writer) {
			full(w, secLinvColPtr, nil)
			bad := append([]int(nil), ix.linv.ColPtr...)
			bad[len(bad)-1]++ // endpoint disagrees with the index array
			w.AddInts(secLinvColPtr, bad)
		}, "L-inverse pointers"},
		{"out-of-range row index", func(w *mmapio.Writer) {
			full(w, secLinvRowIdx, nil)
			bad := append([]int(nil), ix.linv.RowIdx...)
			bad[0] = ix.n + 5
			w.AddInts(secLinvRowIdx, bad)
		}, "row index"},
		{"non-permutation", func(w *mmapio.Writer) {
			full(w, secPerm, nil)
			bad := append([]int(nil), ix.perm...)
			bad[0] = bad[1]
			w.AddInts(secPerm, bad)
		}, "not a permutation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := mmapio.NewWriter()
			tc.mk(w)
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := LoadIndex(bytes.NewReader(buf.Bytes()))
			if err == nil {
				t.Fatal("corrupt container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
