package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	orig, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := openBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	withAdjacency(loaded, orig)
	if loaded.N() != orig.N() || loaded.Restart() != orig.Restart() {
		t.Fatalf("shape changed: n=%d c=%v", loaded.N(), loaded.Restart())
	}
	ls, os := loaded.Stats(), orig.Stats()
	if ls.NNZInverse != os.NNZInverse || ls.Edges != os.Edges || ls.Method != os.Method {
		t.Errorf("stats changed: %+v vs %+v", ls, os)
	}
	// Every query must give byte-identical scores and ordering.
	for _, q := range []int{0, 33, 77, 119} {
		a, sa, err := orig.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := loaded.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q=%d: result counts differ", q)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("q=%d rank %d: %v vs %v", q, i, a[i], b[i])
			}
		}
		if sa.ProximityComputations != sb.ProximityComputations {
			t.Errorf("q=%d: search work differs: %d vs %d", q, sa.ProximityComputations, sb.ProximityComputations)
		}
	}
}

// withAdjacency hands a loaded index the adjacency its build kept,
// which the file does not store, so the monolithic search can run on
// the loaded factors.
func withAdjacency(loaded, built *Index) *Index {
	loaded.a = built.a //kdash:allow(rofactors) installs a heap adjacency beside the sealed factors, which stay untouched
	return loaded
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOTANIDX1aaaaaaaaaaaaaaaaaaa",
		"truncated": "KDASHIX\x01\x05",
	}
	for name, in := range cases {
		if _, err := openBytes(t, []byte(in)); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
}

// openBytes writes data to a temp file and opens it with OpenIndexFile,
// the one index loader.
func openBytes(tb testing.TB, data []byte) (*Index, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "index.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return OpenIndexFile(path)
}

// savedBytes returns the index as Save writes it.
func savedBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patchSection rewrites section id of a saved container in place and
// reseals the section and table checksums, so the corruption reaches the
// index-level validation instead of failing mmapio's integrity checks.
func patchSection(t testing.TB, data []byte, id uint32, patch func(sec []byte)) {
	t.Helper()
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	k := le.Uint32(data[12:])
	for i := uint32(0); i < k; i++ {
		e := data[32+32*i:]
		if le.Uint32(e) != id {
			continue
		}
		width := uint64(8)
		switch le.Uint32(e[4:]) {
		case mmapio.KindBytes:
			width = 1
		case mmapio.KindInt32:
			width = 4
		}
		off := le.Uint64(e[8:])
		sec := data[off : off+le.Uint64(e[16:])*width]
		patch(sec)
		le.PutUint32(e[24:], crc32.Checksum(sec, castagnoli))
		le.PutUint32(data[28:], crc32.Checksum(data[32:32+32*k], castagnoli))
		return
	}
	t.Fatalf("no section %d", id)
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	g := gen.ErdosRenyi(20, 60, 2)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, ix)
	data[len(mmapio.Magic)] = 99 // corrupt the container version
	if _, err := openBytes(t, data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
}

func TestLoadRejectsCorruptPermutation(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 3)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, ix)
	// Duplicate the second perm entry over the first.
	patchSection(t, data, secPerm, func(sec []byte) { copy(sec[:4], sec[4:8]) })
	if _, err := openBytes(t, data); err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Errorf("expected corrupt-permutation error, got %v", err)
	}
}

// TestLoadRejectsCorruptUInverseRowPtr points every interior U^-1 row
// pointer past the column array while keeping both endpoints valid: the
// loader must refuse the file rather than let the first query slice out
// of range.
func TestLoadRejectsCorruptUInverseRowPtr(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 3)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, ix)
	past := uint64(ix.inv.Uinv.NNZ() + 5)
	patchSection(t, data, secUinvRowPtr, func(sec []byte) {
		for i := 8; i < len(sec)-8; i += 8 {
			binary.LittleEndian.PutUint64(sec[i:], past)
		}
	})
	if _, err := openBytes(t, data); err == nil || !strings.Contains(err.Error(), "U-inverse") {
		t.Errorf("expected corrupt U-inverse pointer error, got %v", err)
	}
}

func TestLoadRejectsCorruptRestart(t *testing.T) {
	g := gen.ErdosRenyi(15, 45, 4)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree})
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, ix)
	patchSection(t, data, secMeta, func(meta []byte) {
		binary.LittleEndian.PutUint64(meta[16:], math.Float64bits(3.5))
	})
	if _, err := openBytes(t, data); err == nil || !strings.Contains(err.Error(), "c=3.5") {
		t.Errorf("expected corrupt-restart error, got %v", err)
	}
}
