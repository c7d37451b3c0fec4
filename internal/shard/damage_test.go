package shard

// Damage to the directory's containers: every section of graph.idx and
// partition.idx is checksummed, and what a checksum cannot see — a
// consistent rewrite — is cross-checked against the manifest, the
// assignment and the shard files. Either way a damaged directory is
// refused before any query is answered, with an error naming the file.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
)

// mmapioDataStart is where a saved container's first section begins:
// one DefaultAlign page of header and table.
const mmapioDataStart = mmapio.DefaultAlign

// containerSection is one section table entry of a saved container.
type containerSection struct {
	id         uint32
	entry      int // byte offset of the table entry
	off, bytes uint64
}

// containerSections lists a container's sections from its table.
func containerSections(tb testing.TB, data []byte) []containerSection {
	tb.Helper()
	le := binary.LittleEndian
	if len(data) < 32 {
		tb.Fatal("not a container")
	}
	var out []containerSection
	for i := 0; i < int(le.Uint32(data[12:])); i++ {
		e := 32 + 32*i
		width := uint64(8)
		switch le.Uint32(data[e+4:]) {
		case mmapio.KindBytes:
			width = 1
		case mmapio.KindInt32:
			width = 4
		}
		out = append(out, containerSection{id: le.Uint32(data[e:]), entry: e, off: le.Uint64(data[e+8:]), bytes: le.Uint64(data[e+16:]) * width})
	}
	return out
}

// resealTable recomputes a container's table checksum.
func resealTable(data []byte) {
	le := binary.LittleEndian
	k := le.Uint32(data[12:])
	le.PutUint32(data[28:], crc32.Checksum(data[32:32+32*k], crc32.MakeTable(crc32.Castagnoli)))
}

// resealed returns a copy of a container with section id rewritten by
// patch and its checksums recomputed: a consistent edit only the
// cross-checks can refuse.
func resealed(tb testing.TB, data []byte, id uint32, patch func(sec []byte)) []byte {
	tb.Helper()
	out := append([]byte{}, data...)
	for _, s := range containerSections(tb, out) {
		if s.id != id {
			continue
		}
		sec := out[s.off : s.off+s.bytes]
		patch(sec)
		binary.LittleEndian.PutUint32(out[s.entry+24:], crc32.Checksum(sec, crc32.MakeTable(crc32.Castagnoli)))
		resealTable(out)
		return out
	}
	tb.Fatalf("no section %d", id)
	return nil
}

// withSectionCount returns a copy of a container whose table claims
// count elements for section id, table checksum resealed.
func withSectionCount(tb testing.TB, data []byte, id uint32, count uint64) []byte {
	tb.Helper()
	out := append([]byte{}, data...)
	for _, s := range containerSections(tb, out) {
		if s.id == id {
			binary.LittleEndian.PutUint64(out[s.entry+16:], count)
			resealTable(out)
			return out
		}
	}
	tb.Fatalf("no section %d", id)
	return nil
}

// damageDir saves a fresh copy of sx and returns its directory.
func damageDir(t *testing.T, sx *ShardedIndex) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// editFile rewrites one file of dir through edit.
func editFile(t *testing.T, dir, name string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertRefused opens dir eagerly and lazily and asserts that neither
// answers a query: the open fails, or (a lazily deferred file) the
// first query does with core.ErrUnavailable. Every error must name
// the file.
func assertRefused(t *testing.T, dir, name string) { assertRefusedAt(t, dir, name, 2) }

// assertRefusedAt is assertRefused with query node q, which must reach
// the damaged file: its shard, for a shard file.
func assertRefusedAt(t *testing.T, dir, name string, q int) {
	t.Helper()
	for _, opt := range []LoadOptions{{}, {Lazy: true}} {
		sx, err := Open(dir, opt)
		if err == nil {
			_, _, err = sx.TopK(q, 10)
			sx.Close()
			if err == nil {
				t.Fatalf("lazy=%v: damaged %s answered a query", opt.Lazy, name)
			}
			if !errors.Is(err, core.ErrUnavailable) {
				t.Errorf("lazy=%v: query error %v is not ErrUnavailable", opt.Lazy, err)
			}
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("lazy=%v: refusal %q does not name %s", opt.Lazy, err, name)
		}
	}
}

// damageIndex is a small index of the bench's shape, with more than
// 2,000 edges.
func damageIndex(t *testing.T) *ShardedIndex {
	t.Helper()
	sx, err := Build(gen.CommunityOverlay(2000, 3, 20, 0.995, 7), Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// TestSectionDamageRefused flips one byte in every section of the
// graph snapshot, of the partition container and of a shard file, one
// section at a time, and asserts that eager and lazy opens both refuse
// before any query is answered (a lazy open, by the first query homed
// in the damaged shard).
func TestSectionDamageRefused(t *testing.T) {
	sx := damageIndex(t)
	clean := damageDir(t, sx)
	q := map[string]int{graphFileName: 2, partitionFileName: 2, "shard-0000.idx": int(sx.parts[0].nodes[0])}
	for _, name := range []string{graphFileName, partitionFileName, "shard-0000.idx"} {
		data, err := os.ReadFile(filepath.Join(clean, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range containerSections(t, data) {
			if s.bytes == 0 {
				continue
			}
			t.Run(name+"/"+strconv.Itoa(int(s.id)), func(t *testing.T) {
				dir := damageDir(t, sx)
				editFile(t, dir, name, func(b []byte) []byte {
					b[s.off+s.bytes/2] ^= 0x01
					return b
				})
				assertRefusedAt(t, dir, name, q[name])
			})
		}
	}
}

// TestFindingAEditsRefused replays the three edits that once changed
// answers silently — the snapshot's first 2,000 edge targets moved to
// v+1, two nodes' shards swapped in the assignment, and a cut weight's
// low bits changed — on the current containers, as raw edits and,
// where the edit has a consistent form, resealed: each is refused.
func TestFindingAEditsRefused(t *testing.T) {
	sx := damageIndex(t)
	n := uint32(sx.N())
	moveTargets := func(sec []byte) {
		for i := 0; i < 2000; i++ {
			v := binary.LittleEndian.Uint32(sec[4*i:])
			binary.LittleEndian.PutUint32(sec[4*i:], (v+1)%n)
		}
	}
	inPlace := func(b []byte, id uint32, patch func([]byte)) []byte {
		for _, s := range containerSections(t, b) {
			if s.id == id {
				patch(b[s.off : s.off+s.bytes])
				return b
			}
		}
		t.Fatalf("no section %d", id)
		return nil
	}
	// Two nodes of different shards.
	u, v := 2, 46
	for sx.home[v] == sx.home[u] {
		v++
	}
	swap := func(sec []byte) {
		a, b := sec[4*u:4*u+4], sec[4*v:4*v+4]
		var tmp [4]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	}
	lowBits := func(sec []byte) { sec[0] ^= 0x01 } // the first cut weight's lowest mantissa bit
	cases := []struct {
		label, file string
		edit        func([]byte) []byte
	}{
		{"graph targets moved", graphFileName, func(b []byte) []byte { return inPlace(b, 3, moveTargets) }},
		{"graph targets moved, resealed", graphFileName, func(b []byte) []byte { return resealed(t, b, 3, moveTargets) }},
		{"assignment swapped", partitionFileName, func(b []byte) []byte { return inPlace(b, partAssign, swap) }},
		{"cut weight low bits", partitionFileName, func(b []byte) []byte { return inPlace(b, partCutW, lowBits) }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			dir := damageDir(t, sx)
			editFile(t, dir, tc.file, tc.edit)
			assertRefused(t, dir, tc.file)
		})
	}
}

// TestDirectoryCrossChecks makes consistent edits no checksum can see
// and asserts the cross-checks refuse them: the assignment's per-shard
// counts against the manifest and the shard files, every cut's
// endpoints against the assignment, and the snapshot's counts against
// the manifest.
func TestDirectoryCrossChecks(t *testing.T) {
	sx := damageIndex(t)
	editManifest := func(t *testing.T, dir string, edit func(m map[string]any)) {
		editFile(t, dir, ManifestName, func(b []byte) []byte {
			var m map[string]any
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			edit(m)
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	}
	// A node of shard 0 moved to shard 1.
	u := int(sx.parts[0].nodes[0])
	moveNode := func(sec []byte) { binary.LittleEndian.PutUint32(sec[4*u:], 1) }

	t.Run("per-shard counts vs manifest", func(t *testing.T) {
		dir := damageDir(t, sx)
		editFile(t, dir, partitionFileName, func(b []byte) []byte { return resealed(t, b, partAssign, moveNode) })
		assertRefused(t, dir, partitionFileName)
	})
	t.Run("per-shard counts vs shard files", func(t *testing.T) {
		// The manifest agrees with the moved node; shard 0's file and
		// the cut lists do not.
		dir := damageDir(t, sx)
		editFile(t, dir, partitionFileName, func(b []byte) []byte { return resealed(t, b, partAssign, moveNode) })
		editManifest(t, dir, func(m map[string]any) {
			sizes := m["stats"].(map[string]any)["sizes"].([]any)
			sizes[0] = sizes[0].(float64) - 1
			sizes[1] = sizes[1].(float64) + 1
		})
		for _, opt := range []LoadOptions{{}, {Lazy: true}} {
			loaded, err := Open(dir, opt)
			if err == nil {
				_, err = loaded.ProximityVector(int(sx.parts[0].nodes[1]))
				loaded.Close()
			}
			if err == nil {
				t.Fatalf("lazy=%v: a partition disagreeing with the shard files served", opt.Lazy)
			}
		}
	})
	t.Run("cut source in another shard", func(t *testing.T) {
		dir := damageDir(t, sx)
		other := uint32(sx.parts[1].nodes[0])
		editFile(t, dir, partitionFileName, func(b []byte) []byte {
			return resealed(t, b, partCutSrc, func(sec []byte) { binary.LittleEndian.PutUint32(sec, other) })
		})
		assertRefused(t, dir, partitionFileName)
	})
	t.Run("cut destination in its own shard", func(t *testing.T) {
		dir := damageDir(t, sx)
		own := uint32(sx.parts[0].nodes[1])
		editFile(t, dir, partitionFileName, func(b []byte) []byte {
			return resealed(t, b, partCutDst, func(sec []byte) { binary.LittleEndian.PutUint32(sec, own) })
		})
		assertRefused(t, dir, partitionFileName)
	})
	t.Run("cut weight NaN", func(t *testing.T) {
		dir := damageDir(t, sx)
		editFile(t, dir, partitionFileName, func(b []byte) []byte {
			return resealed(t, b, partCutW, func(sec []byte) { binary.LittleEndian.PutUint64(sec, math.Float64bits(math.NaN())) })
		})
		assertRefused(t, dir, partitionFileName)
	})
	t.Run("snapshot edge count vs manifest", func(t *testing.T) {
		dir := damageDir(t, sx)
		editManifest(t, dir, func(m map[string]any) { m["edges"] = m["edges"].(float64) + 1 })
		assertRefused(t, dir, graphFileName)
	})
}
