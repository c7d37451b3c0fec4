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
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
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
	loaded, err := Load(dir)
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
	loaded, err := Load(dir)
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
	if err := os.Remove(filepath.Join(dir, "graph.tsv")); err != nil {
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

// TestOldGenerationsRefused pins the one-generation rule: a v1 core
// stream, a core container carrying a retired kind-4 section, and a
// version 4 directory (whose shard files carry such sections) are each
// refused up front with the rebuild instruction — by LoadIndex and
// OpenIndexFile for the files, by Open both eagerly and lazily for the
// directory — never accepted only to fail at query time.
func TestOldGenerationsRefused(t *testing.T) {
	g := testutil.Clustered(90, 3, 4)
	built, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "v4")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Turn the directory into what version 4 wrote: the manifest's old
	// version and format marker, every shard file with a strip section.
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["version"], m["shardFormat"] = 4, 3
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var kind4 []byte
	for si := 0; si < built.Shards(); si++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.idx", si))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kind4 = withStripSection(t, data)
		if err := os.WriteFile(path, kind4, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	kind4Path := filepath.Join(dir, "shard-0000.idx")
	// The opening fields of a v1 stream: magic, version, n, c.
	v1 := []byte("KDASHIX\x01")
	v1 = binary.LittleEndian.AppendUint64(v1, 30)
	v1 = binary.LittleEndian.AppendUint64(v1, math.Float64bits(0.95))
	v1Path := filepath.Join(t.TempDir(), "v1.idx")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	type closer interface{ Close() error }
	loadBytes := func(b []byte) func() (closer, error) {
		return func() (closer, error) { return core.LoadIndex(bytes.NewReader(b)) }
	}
	openFile := func(path string) func() (closer, error) {
		return func() (closer, error) { return core.OpenIndexFile(path) }
	}
	openDir := func(opt LoadOptions) func() (closer, error) {
		return func() (closer, error) { return Open(dir, opt) }
	}
	cases := []struct {
		name string
		open func() (closer, error)
	}{
		{"v1 stream/LoadIndex", loadBytes(v1)},
		{"v1 stream/OpenIndexFile copy", openFile(v1Path)},
		{"kind-4 section/LoadIndex", loadBytes(kind4)},
		{"kind-4 section/OpenIndexFile copy", openFile(kind4Path)},
		{"v4 directory/eager", openDir(LoadOptions{})},
		{"v4 directory/lazy", openDir(LoadOptions{Lazy: true})},
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
	if _, err := Load(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing directory accepted")
	}
	// Truncated assignment.
	if err := os.WriteFile(filepath.Join(dir, "assignment.bin"), []byte{1, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("truncated assignment accepted")
	}
	// Garbage manifest.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("garbage manifest accepted")
	}
}

// TestLoadRejectsCutCountBomb sets shard 0's cut count in cuts.bin to
// n^2, the largest the node count allows: Open must refuse the file
// before it allocates for the count, because the file cannot hold that
// many records.
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
	path := filepath.Join(dir, "cuts.bin")
	cuts, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(cuts, n*n)
	if err := os.WriteFile(path, cuts, 0o644); err != nil {
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
	loaded, err := Load(dir)
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
