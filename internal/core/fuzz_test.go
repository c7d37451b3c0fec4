package core

// Native fuzz targets for the binary index loader: whatever bytes come
// in — truncations of a valid index, bit flips, retired generations,
// garbage — OpenIndexFile, reading them from a temp file, must return
// an error, never panic and never commit unbounded memory.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

// fuzzNodes is the node count of fuzzIndexBytes's index.
const fuzzNodes = 24

// fuzzIndexBytes is a small valid saved index: the seeds the mutator
// starts from are the valid bytes plus truncations and targeted
// corruptions.
func fuzzIndexBytes(tb testing.TB) []byte {
	tb.Helper()
	ix := fuzzIndex(tb)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzIndex builds the index fuzzIndexBytes saves.
func fuzzIndex(tb testing.TB) *Index {
	tb.Helper()
	g := gen.ErdosRenyi(fuzzNodes, 90, 7)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// fuzzIndexWith is fuzzIndexBytes with inverse factors that edit has
// rewritten.
func fuzzIndexWith(tb testing.TB, edit func(l, u *lu.Compact)) []byte {
	tb.Helper()
	ix := fuzzIndex(tb)
	w := mmapio.NewWriter()
	w.AddBytes(secMeta, ix.metaBytes())
	l, u := cloneCompact(ix.inv.Linv), cloneCompact(ix.inv.Uinv)
	edit(l, u)
	writeSections(w, 0, ix.perm, l, u)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadIndex drives OpenIndexFile with bytes that are not a container:
// a retired v1 stream's opening fields, whole and cut short, plus
// garbage and a length-prefix bomb. A retired generation is refused on
// sight, so every input must come back as an error.
// Run with `go test -fuzz=FuzzLoadIndex ./internal/core`.
func FuzzLoadIndex(f *testing.F) {
	v1 := []byte("KDASHIX\x01")
	v1 = binary.LittleEndian.AppendUint64(v1, 24)
	v1 = binary.LittleEndian.AppendUint64(v1, math.Float64bits(0.95))
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add(v1[:9])
	f.Add([]byte("KDASHIX\x01"))
	f.Add([]byte("not an index"))
	f.Add([]byte{})
	f.Add(append(v1[:16:16], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(fuzzLoadOne)
}

// FuzzLoadIndexV3 drives OpenIndexFile with mutations of a valid container:
// header and table corruption is mmapio's to reject, section shape and
// content corruption is indexFromContainer's — either way the contract
// is an error, no panic and no unbounded commit.
// Run with `go test -fuzz=FuzzLoadIndexV3 ./internal/core`.
func FuzzLoadIndexV3(f *testing.F) {
	for _, s := range fuzzSeedsV3(f) {
		f.Add(s.data)
	}
	f.Fuzz(fuzzLoadOne)
}

// fuzzSeed is one named seed input of FuzzLoadIndexV3.
type fuzzSeed struct {
	name string
	data []byte
}

// fuzzSeedsV3 is FuzzLoadIndexV3's seeds, each named as its committed
// corpus entry under testdata/fuzz/FuzzLoadIndexV3.
func fuzzSeedsV3(tb testing.TB) []fuzzSeed {
	valid := fuzzIndexBytes(tb)
	// Flip one byte inside the first data section (checksum mismatch).
	flip := append([]byte{}, valid...)
	flip[4096] ^= 0xff
	// Flip a table byte (table checksum mismatch).
	flipTable := append([]byte{}, valid...)
	flipTable[32] ^= 0xff
	// An L^-1 column whose first row is escaped as -1, and a U^-1 gap
	// that carries the last row's id to n, so each reaches the decode
	// check.
	negID := fuzzIndexWith(tb, func(l, u *lu.Compact) { escapeEntry(l, 0, 0, -1) })
	idN := append([]byte{}, valid...)
	patchSection(tb, idN, secUinvGap, func(sec []byte) { sec[len(sec)-1]++ })
	return []fuzzSeed{
		{"valid", valid},
		{"truncated-mid-section", valid[:len(valid)/2]},
		{"header-and-table", valid[:40]},
		{"magic-only", valid[:8]},
		{"data-checksum-flip", flip},
		{"table-checksum-flip", flipTable},
		{"negative-id", negID},
		{"id-at-n", idN},
	}
}

// TestFuzzCorpusIsCurrent pins the committed FuzzLoadIndexV3 corpus to
// the seeds of the current format, so a format change that leaves the
// corpus in the old layout — where "valid" no longer reaches section
// or range validation — fails here until the corpus is regenerated.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	for _, s := range fuzzSeedsV3(t) {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadIndexV3", s.name))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if string(raw) != want {
			t.Errorf("corpus entry %s is not the current seed; regenerate it from fuzzSeedsV3", s.name)
		}
	}
	if _, err := openBytes(t, fuzzIndexBytes(t)); err != nil {
		t.Fatalf("the valid seed does not load: %v", err)
	}
}

// fuzzLoadOne is the shared oracle of both loader fuzz targets.
func fuzzLoadOne(t *testing.T, data []byte) {
	ix, err := openBytes(t, data)
	if err != nil {
		return // rejection is the expected outcome for corrupt input
	}
	defer ix.Close()
	// The rare accepted input must yield an index the split solve,
	// the one query path of a shard file, can run on.
	if ix.N() <= 0 {
		t.Fatalf("accepted index with n=%d", ix.N())
	}
	w := ix.NewWorkspace()
	if err := ix.SolveLower([]int{0}, []float64{1}, w); err != nil {
		t.Fatalf("accepted index cannot solve: %v", err)
	}
	for u := 0; u < ix.N(); u++ {
		ix.UpperDot(u, w)
	}
}
