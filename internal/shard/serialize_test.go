package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// TestSaveLoadRoundTrip checks that a loaded sharded index answers every
// query identically to the index it was saved from.
func TestSaveLoadRoundTrip(t *testing.T) {
	g := gen.DirectedScaleFree(180, 3, 0.3, 0.4, 21)
	built, err := Build(g, Options{Shards: 5, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !IsShardedIndexDir(dir) {
		t.Fatal("saved directory not recognised as a sharded index")
	}
	loaded, err := Open(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != built.N() || loaded.Restart() != built.Restart() || loaded.Shards() != built.Shards() {
		t.Fatalf("shape mismatch: loaded (n=%d c=%v s=%d), built (n=%d c=%v s=%d)",
			loaded.N(), loaded.Restart(), loaded.Shards(), built.N(), built.Restart(), built.Shards())
	}
	for q := 0; q < g.N(); q += 13 {
		want, _, err := built.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q=%d: %d vs %d results", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%d i=%d: loaded %v, built %v", q, i, got[i], want[i])
			}
		}
	}
	// Persisted stats survive the trip.
	if loaded.Stats().CutEdges != built.Stats().CutEdges || loaded.Stats().NNZInverse != built.Stats().NNZInverse {
		t.Errorf("stats mismatch: loaded %+v, built %+v", loaded.Stats(), built.Stats())
	}
}

// TestUpdatedIndexRoundTrip checks the v2 manifest carries the dynamic
// state: an updated index saves, loads, keeps its epoch and graph
// snapshot, and accepts further updates that stay bit-identical to the
// never-serialised chain.
func TestUpdatedIndexRoundTrip(t *testing.T) {
	g := testutil.Clustered(120, 4, 13)
	sx, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := g.NewDelta()
	id := d.AddNode()
	if err := d.AddEdge(id, 3, 1.25); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(5, id, 0.75); err != nil {
		t.Fatal(err)
	}
	sx, _, err = sx.Apply(d)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "idx")
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 1 {
		t.Fatalf("loaded epoch = %d, want 1", loaded.Epoch())
	}
	if loaded.Graph() == nil || loaded.Graph().N() != sx.N() || loaded.Graph().M() != sx.Graph().M() {
		t.Fatal("graph snapshot did not round-trip")
	}

	// Apply the same follow-up batch to both and compare bit-for-bit.
	d2 := sx.Graph().NewDelta()
	if err := d2.AddEdge(10, 40, 2); err != nil {
		t.Fatal(err)
	}
	a, _, err := sx.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	d3 := loaded.Graph().NewDelta()
	if err := d3.AddEdge(10, 40, 2); err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.Apply(d3)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, b, a, 8)
}

// TestLoadV1ManifestRefused checks that a v1 directory (no graph
// snapshot, no update state) is refused at load with the rebuild
// instruction, eager and lazy: the rank searches the snapshot, so
// such a directory cannot answer a query.
func TestLoadV1ManifestRefused(t *testing.T) {
	g := gen.ErdosRenyi(50, 220, 7)
	sx, err := Build(g, Options{Shards: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as version 1, dropping the v2 fields and the
	// graph snapshot — the layout PR 1 shipped.
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 1
	for _, k := range []string{"graphFile", "reorder", "seed", "epoch", "stalenessLimit", "staleness"} {
		delete(m, k)
	}
	blob, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, graphFileName)); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []LoadOptions{{}, {Lazy: true}} {
		loaded, err := Open(dir, opt)
		if err == nil {
			loaded.Close()
			t.Fatalf("%+v: v1 manifest accepted", opt)
		}
		if !strings.Contains(err.Error(), "rebuild with `kdash -save-index`") {
			t.Errorf("%+v: refusal %q does not say how to rebuild", opt, err)
		}
	}
}

// withStripSection appends a section of the retired int32 kind (4) to a
// saved container: what every shard file of a version 4 directory
// carried as its blocked factor strips (sections 15-22).
func withStripSection(t *testing.T, data []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	k := le.Uint32(data[12:])
	if 32+32*(k+1) > mmapio.DefaultAlign {
		t.Fatal("no room left in the section table")
	}
	payload := make([]byte, mmapio.DefaultAlign) // 1,024 int32 zeros
	out := append(append([]byte(nil), data...), payload...)
	e := out[32+32*k:] // the table's zero padding before the first section
	le.PutUint32(e, 15)
	le.PutUint32(e[4:], 4)
	le.PutUint64(e[8:], uint64(len(data)))
	le.PutUint64(e[16:], uint64(len(payload)/4))
	le.PutUint32(e[24:], crc32.Checksum(payload, castagnoli))
	le.PutUint32(out[12:], k+1)
	le.PutUint64(out[16:], uint64(len(out)))
	le.PutUint32(out[28:], crc32.Checksum(out[32:32+32*(k+1)], castagnoli))
	return out
}

// asRetiredGeneration rewrites a saved shard file with meta tag tag and
// the meta section's first metaBytes bytes, the current sections with
// the inverse factors' ids as the int32 sections 8 and 11 the retired
// generations stored, plus — when withAdjacency — the adjacency
// sections (4-6) — one without entries, a shape their loaders accepted,
// since the current file keeps none to copy — and the community
// section only when withCommunities: "KDIXV6" (80 bytes, communities,
// no adjacency) is the generation before the compact id encoding,
// "KDIXV5" (80 bytes, communities) the one before shard files dropped
// their adjacency, "KDIXV4" (64 bytes, no communities) the one before
// they kept their communities.
func asRetiredGeneration(t *testing.T, data []byte, tag string, metaBytes int, withAdjacency, withCommunities bool) []byte {
	t.Helper()
	f, err := mmapio.FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := f.Bytes(1)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := f.Int32s(2)
	if err != nil {
		t.Fatal(err)
	}
	w := mmapio.NewWriter()
	w.AddBytes(1, append([]byte(tag), meta[8:metaBytes]...))
	w.AddInt32s(2, perm)
	if withAdjacency {
		w.AddInts(4, make([]int, len(perm)+1))
		w.AddInt32s(5, []int32{})
		w.AddFloats(6, []float64{})
	}
	ids := []uint32{7, 8, 9, 10, 11, 12}
	if withCommunities {
		ids = append(ids, 23)
	}
	for _, id := range ids {
		switch id {
		case 8, 11:
			w.AddInt32s(id, decodedIDList(t, f, decodedIDs[id]))
		case 23:
			xs, err := f.Int32s(id)
			if err != nil {
				t.Fatal(err)
			}
			w.AddInt32s(id, xs)
		case 7, 10:
			xs, err := f.Ints(id)
			if err != nil {
				t.Fatal(err)
			}
			w.AddInts(id, xs)
		default:
			xs, err := f.Floats(id)
			if err != nil {
				t.Fatal(err)
			}
			w.AddFloats(id, xs)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asParentGeneration rewrites a saved shard file as the generation
// before int32 ids wrote it: meta tag "KDIXV3" with amax in its 72
// bytes, every id section int64, an adjacency without entries (see
// asRetiredGeneration), and the stored inverse permutation, Amax(u) and
// diagonal of A (sections 3, 13 and 14; the tables are left zero, which
// that generation's loader did not check).
func asParentGeneration(t *testing.T, data []byte) []byte {
	t.Helper()
	f, err := mmapio.FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	wide := func(id uint32) []int {
		var xs []int32
		if secs, ok := decodedIDs[id]; ok {
			xs = decodedIDList(t, f, secs) // the inverse factors' ids
		} else {
			var err error
			xs, err = f.Int32s(id)
			must(err)
		}
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = int(x)
		}
		return out
	}
	ints := func(id uint32) []int { xs, err := f.Ints(id); must(err); return xs }
	floats := func(id uint32) []float64 { xs, err := f.Floats(id); must(err); return xs }
	meta, err := f.Bytes(1)
	must(err)
	old := append([]byte("KDIXV3\x00\x00"), meta[8:24]...) // tag, n, c
	old = binary.LittleEndian.AppendUint64(old, 0)         // amax
	old = append(old, meta[24:64]...)                      // method, stats
	perm := wide(2)
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	w := mmapio.NewWriter()
	w.AddBytes(1, old)
	w.AddInts(2, perm)
	w.AddInts(3, inv)
	w.AddInts(4, make([]int, len(perm)+1)) // an adjacency without entries
	w.AddInts(5, []int{})
	w.AddFloats(6, []float64{})
	w.AddInts(7, ints(7))
	w.AddInts(8, wide(8))
	w.AddFloats(9, floats(9))
	w.AddInts(10, ints(10))
	w.AddInts(11, wide(11))
	w.AddFloats(12, floats(12))
	w.AddFloats(13, make([]float64, len(perm)))
	w.AddFloats(14, make([]float64, len(perm)))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asV1Snapshot rewrites a saved graph snapshot as the generation that
// also stored the in-adjacency: meta tag "KDGRV1", sections 5-7.
func asV1Snapshot(t *testing.T, data []byte) []byte {
	t.Helper()
	f, err := mmapio.FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, err1 := f.Bytes(1)
	ptr, err2 := f.Ints(2)
	to, err3 := f.Int32s(3)
	wt, err4 := f.Floats(4)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCSR(slices.Clone(ptr), slices.Clone(to), slices.Clone(wt))
	if err != nil {
		t.Fatal(err)
	}
	inPtr := []int{0}
	var inFrom []int32
	var inW []float64
	for u := 0; u < g.N(); u++ {
		g.InNeighbors(u, func(v int, w float64) {
			inFrom = append(inFrom, int32(v))
			inW = append(inW, w)
		})
		inPtr = append(inPtr, len(inFrom))
	}
	w := mmapio.NewWriter()
	w.AddBytes(1, append([]byte("KDGRV1\x00\x00"), meta[8:]...))
	w.AddInts(2, ptr)
	w.AddInt32s(3, to)
	w.AddFloats(4, wt)
	w.AddInts(5, inPtr)
	w.AddInt32s(6, inFrom)
	w.AddFloats(7, inW)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOldGenerationsRefused pins the one-generation rule: a v1 core
// stream, a core container carrying a retired kind-4 section, a core
// container of the int64-id generation, one of the "KDIXV4" generation
// that kept no communities, one of the "KDIXV5" generation that kept
// its block adjacency, one of the "KDIXV6" generation whose inverse
// factors kept an int32 id per entry, and the version 4 to 8
// directories whose shard files are those containers (version 7's
// snapshot is a "KDGRV1" one, with in-adjacency) are each refused up front with the rebuild
// instruction — by LoadIndex and OpenIndexFile for the files, by Open
// both eagerly and lazily for the directories — never accepted only to
// fail at query time. A current directory holding a "KDGRV1" snapshot
// is refused the same way, by an eager open or a lazy one's first query.
func TestOldGenerationsRefused(t *testing.T) {
	g := testutil.Clustered(90, 3, 4)
	built, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// oldDir saves the index as a directory of the given manifest
	// version whose shard files rewrite turns into that version's; it
	// returns the directory and the first shard file's bytes.
	oldDir := func(version int, rewrite func(*testing.T, []byte) []byte) (string, []byte) {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("v%d", version))
		if err := built.Save(dir); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		m["version"] = version
		if version == 4 {
			m["shardFormat"] = 3
		}
		if blob, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		var first []byte
		for si := built.Shards() - 1; si >= 0; si-- {
			path := filepath.Join(dir, fmt.Sprintf("shard-%04d.idx", si))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first = rewrite(t, data)
			if err := os.WriteFile(path, first, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir, first
	}
	// Version 4: the strip sections, on the int64 generation's files.
	v4, kind4 := oldDir(4, func(t *testing.T, data []byte) []byte {
		return withStripSection(t, asParentGeneration(t, data))
	})
	v5, int64IDs := oldDir(5, asParentGeneration)
	v6, kdixv4 := oldDir(6, func(t *testing.T, data []byte) []byte {
		return asRetiredGeneration(t, data, "KDIXV4\x00\x00", 64, true, false)
	})
	v7, kdixv5 := oldDir(7, func(t *testing.T, data []byte) []byte {
		return asRetiredGeneration(t, data, "KDIXV5\x00\x00", 80, true, true)
	})
	v8, kdixv6 := oldDir(8, func(t *testing.T, data []byte) []byte {
		return asRetiredGeneration(t, data, "KDIXV6\x00\x00", 80, false, true)
	})
	oldSnapshot := func(dir string) {
		path := filepath.Join(dir, graphFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, asV1Snapshot(t, data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldSnapshot(v7)
	kdgrv1 := filepath.Join(t.TempDir(), "kdgrv1")
	if err := built.Save(kdgrv1); err != nil {
		t.Fatal(err)
	}
	oldSnapshot(kdgrv1)
	// The opening fields of a v1 stream: magic, version, n, c.
	v1 := []byte("KDASHIX\x01")
	v1 = binary.LittleEndian.AppendUint64(v1, 30)
	v1 = binary.LittleEndian.AppendUint64(v1, math.Float64bits(0.95))
	v1Path := filepath.Join(t.TempDir(), "v1.idx")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	type closer interface{ Close() error }
	// The rows named LoadIndex are the bytes the retired stream loader
	// was fed, written to a standalone file outside any index directory;
	// OpenIndexFile, the one loader, must refuse them as it refuses the
	// directory's own file.
	loadBytes := func(b []byte) func() (closer, error) {
		path := filepath.Join(t.TempDir(), "standalone.idx")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return func() (closer, error) { return core.OpenIndexFile(path) }
	}
	openFile := func(path string) func() (closer, error) {
		return func() (closer, error) { return core.OpenIndexFile(path) }
	}
	openDir := func(dir string, opt LoadOptions) func() (closer, error) {
		return func() (closer, error) { return Open(dir, opt) }
	}
	// queryDir opens lazily and ranks once, which opens the snapshot.
	queryDir := func(dir string) func() (closer, error) {
		return func() (closer, error) {
			sx, err := Open(dir, LoadOptions{Lazy: true})
			if err != nil {
				return nil, err
			}
			if _, _, err := sx.TopK(0, 3); err != nil {
				sx.Close()
				return nil, err
			}
			return sx, nil
		}
	}
	cases := []struct {
		name string
		open func() (closer, error)
	}{
		{"v1 stream/LoadIndex", loadBytes(v1)},
		{"v1 stream/OpenIndexFile copy", openFile(v1Path)},
		{"kind-4 section/LoadIndex", loadBytes(kind4)},
		{"kind-4 section/OpenIndexFile copy", openFile(filepath.Join(v4, "shard-0000.idx"))},
		{"v4 directory/eager", openDir(v4, LoadOptions{})},
		{"v4 directory/lazy", openDir(v4, LoadOptions{Lazy: true})},
		{"int64 ids/LoadIndex", loadBytes(int64IDs)},
		{"int64 ids/OpenIndexFile copy", openFile(filepath.Join(v5, "shard-0000.idx"))},
		{"v5 directory/eager", openDir(v5, LoadOptions{})},
		{"v5 directory/lazy", openDir(v5, LoadOptions{Lazy: true})},
		{"no communities/LoadIndex", loadBytes(kdixv4)},
		{"no communities/OpenIndexFile copy", openFile(filepath.Join(v6, "shard-0000.idx"))},
		{"v6 directory/eager", openDir(v6, LoadOptions{})},
		{"v6 directory/lazy", openDir(v6, LoadOptions{Lazy: true})},
		{"block adjacency/LoadIndex", loadBytes(kdixv5)},
		{"block adjacency/OpenIndexFile copy", openFile(filepath.Join(v7, "shard-0000.idx"))},
		{"v7 directory/eager", openDir(v7, LoadOptions{})},
		{"v7 directory/lazy", openDir(v7, LoadOptions{Lazy: true})},
		{"int32 ids/LoadIndex", loadBytes(kdixv6)},
		{"int32 ids/OpenIndexFile copy", openFile(filepath.Join(v8, "shard-0000.idx"))},
		{"v8 directory/eager", openDir(v8, LoadOptions{})},
		{"v8 directory/lazy", openDir(v8, LoadOptions{Lazy: true})},
		{"in-adjacency snapshot/eager", openDir(kdgrv1, LoadOptions{})},
		{"in-adjacency snapshot/lazy query", queryDir(kdgrv1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := tc.open()
			if err == nil {
				ix.Close()
				t.Fatal("old generation accepted")
			}
			if !errors.Is(err, core.ErrUnsupportedFormat) || !strings.Contains(err.Error(), "rebuild with `kdash -save-index`") {
				t.Fatalf("refusal %q does not say how to rebuild", err)
			}
		})
	}
}

// TestLoadRejectsCorruption checks the loader fails loudly instead of
// serving from a damaged directory.
func TestLoadRejectsCorruption(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 2)
	built, err := Build(g, Options{Shards: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "nope"), LoadOptions{}); err == nil {
		t.Error("missing directory accepted")
	}
	// Truncated partition container.
	if err := os.WriteFile(filepath.Join(dir, partitionFileName), []byte{1, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, LoadOptions{}); err == nil {
		t.Error("truncated partition accepted")
	}
	// Garbage manifest.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, LoadOptions{}); err == nil {
		t.Error("garbage manifest accepted")
	}
}

// TestLoadRejectsCutCountBomb makes partition.idx's section table claim
// n^2 cut sources, the most the node count allows: Open must refuse the
// file before it allocates for the count, because the file cannot hold
// that many records.
func TestLoadRejectsCutCountBomb(t *testing.T) {
	const n = 2000
	built, err := Build(gen.PlantedPartition(n, 4, 0.004, 0.0005, 9), Options{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, partitionFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withSectionCount(t, data, partCutSrc, n*n), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sx, err := Open(dir, LoadOptions{})
	runtime.ReadMemStats(&after)
	if err == nil {
		sx.Close()
		t.Fatal("cut count larger than the file accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("Open allocated %d bytes before refusing the cut count, want < 16 MB", grew)
	}
}

// TestManifestV4WALInfoRoundTrip: a stamped WAL position survives
// Save/Load, an unstamped save omits it, and Apply does not carry a
// stale stamp onto its successor.
func TestManifestV4WALInfoRoundTrip(t *testing.T) {
	g := gen.DirectedScaleFree(80, 3, 0.3, 0.4, 7)
	built, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.SaveWALSnapshot(dir, 42, []string{"wal-0000000000000001.log", "wal-0000000000000029.log"}); err != nil {
		t.Fatal(err)
	}
	var m manifest
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion || m.WALSeq != 42 || len(m.WALSegments) != 2 {
		t.Fatalf("manifest = version %d walSeq %d segments %v", m.Version, m.WALSeq, m.WALSegments)
	}
	loaded, err := Open(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.WALSeq() != 42 || len(loaded.walSegments) != 2 {
		t.Fatalf("loaded walSeq %d segments %v", loaded.WALSeq(), loaded.walSegments)
	}

	// Apply must not forward the stamp: the successor covers more deltas
	// than the stamped position.
	d := loaded.Graph().NewDelta()
	if err := d.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	succ, us, err := loaded.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if succ.WALSeq() != 0 {
		t.Fatalf("successor inherited walSeq %d", succ.WALSeq())
	}
	if len(us.DirtyShards) != us.ShardsRebuilt || len(us.DirtyShards) == 0 {
		t.Fatalf("DirtyShards = %v, ShardsRebuilt = %d", us.DirtyShards, us.ShardsRebuilt)
	}

	// An unstamped index persists no WAL fields at all.
	dir2 := filepath.Join(t.TempDir(), "idx2")
	if err := succ.Save(dir2); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(filepath.Join(dir2, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob2) != "" && (jsonHasKey(blob2, "walSeq") || jsonHasKey(blob2, "walSegments")) {
		t.Fatal("unstamped manifest carries WAL fields")
	}
}

func jsonHasKey(blob []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
