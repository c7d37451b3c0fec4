package shard

// Native fuzz targets for the sharded-index directory loader: a
// corrupt manifest.json, partition.idx (the assignment and the cut
// lists), graph.idx or shard-NNNN.idx must make Load return an error —
// never panic, never commit memory the directory does not carry. Each
// target prepares one valid saved directory per process and swaps the
// fuzzed file into it per input.
//
// Run with:
//
//	go test -fuzz=FuzzManifest      ./internal/shard
//	go test -fuzz=FuzzCutsFile      ./internal/shard   # partition.idx
//	go test -fuzz=FuzzGraphSnapshot ./internal/shard   # graph.idx
//	go test -fuzz=FuzzShardFile     ./internal/shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/testutil"
)

var fuzzDir struct {
	once      sync.Once
	dir       string
	manifest  []byte // the valid manifest.json
	partition []byte // the valid partition.idx
	graph     []byte // the valid graph.idx
	shard0    []byte // the valid shard-0000.idx
	err       error
}

// fuzzNodes is the node count of fuzzIndexDir's index.
const fuzzNodes = 60

// fuzzIndexDir lazily saves one small valid sharded index for the
// process and returns the directory plus the pristine file contents.
// The assignment is pinned, so the partition and graph containers are
// the same bytes on every architecture and their committed corpus can
// be compared (TestShardFuzzCorpusIsCurrent).
func fuzzIndexDir(tb testing.TB) string {
	tb.Helper()
	fuzzDir.once.Do(func() {
		g := testutil.Clustered(fuzzNodes, 3, 5)
		assign := make([]int, fuzzNodes)
		for u := range assign {
			assign[u] = u * 3 / fuzzNodes
		}
		sx, err := Build(g, Options{Seed: 1, Assignment: assign})
		if err != nil {
			fuzzDir.err = err
			return
		}
		dir, err := os.MkdirTemp("", "kdash-fuzz-*")
		if err != nil {
			fuzzDir.err = err
			return
		}
		if err := sx.Save(dir); err != nil {
			fuzzDir.err = err
			return
		}
		fuzzDir.dir = dir
		for _, f := range []struct {
			name string
			dst  *[]byte
		}{
			{ManifestName, &fuzzDir.manifest},
			{partitionFileName, &fuzzDir.partition},
			{graphFileName, &fuzzDir.graph},
			{"shard-0000.idx", &fuzzDir.shard0},
		} {
			if *f.dst, err = os.ReadFile(filepath.Join(dir, f.name)); err != nil {
				fuzzDir.err = err
				return
			}
		}
	})
	if fuzzDir.err != nil {
		tb.Fatal(fuzzDir.err)
	}
	return fuzzDir.dir
}

// fuzzOneFile drives Load with `name` replaced by the fuzzed bytes,
// restoring the pristine content afterwards so inputs stay independent.
func fuzzOneFile(t *testing.T, dir, name string, pristine, data []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	sx, err := Open(dir, LoadOptions{})
	if err != nil {
		return // rejection is the expected outcome
	}
	defer sx.Close()
	// Accepted input (e.g. the pristine bytes themselves) must serve.
	if _, _, qerr := sx.TopK(0, 3); qerr != nil {
		t.Fatalf("accepted directory cannot answer: %v", qerr)
	}
}

func FuzzManifest(f *testing.F) {
	dir := fuzzIndexDir(f)
	valid := fuzzDir.manifest
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":9,"nodes":-4,"shards":1}`))
	f.Add([]byte(`{"version":9,"restart":0.95,"nodes":1152921504606846976,"shards":3,"shardFiles":["a","b","c"],"partitionFile":"partition.idx","graphFile":"graph.idx","stats":{"nnzShards":[1,1,1],"sizes":[1,1,1]}}`))
	f.Add([]byte(`{"version":9,"restart":0.95,"nodes":60,"shards":3,"shardFiles":["shard-0000.idx","shard-0001.idx","shard-0002.idx"],"partitionFile":"../../etc/passwd","graphFile":"graph.idx","stats":{"nnzShards":[1,1,1],"sizes":[20,20,20]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, ManifestName, valid, data)
	})
}

// FuzzCutsFile fuzzes partition.idx, the container holding the
// assignment and every shard's cut list.
func FuzzCutsFile(f *testing.F) {
	dir := fuzzIndexDir(f)
	for _, s := range fuzzSeedsPartition(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, partitionFileName, fuzzDir.partition, data)
	})
}

// FuzzGraphSnapshot fuzzes graph.idx, the sealed graph snapshot.
func FuzzGraphSnapshot(f *testing.F) {
	dir := fuzzIndexDir(f)
	for _, s := range fuzzSeedsGraph(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, graphFileName, fuzzDir.graph, data)
	})
}

func FuzzShardFile(f *testing.F) {
	dir := fuzzIndexDir(f)
	for _, s := range fuzzSeedsShard(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, "shard-0000.idx", fuzzDir.shard0, data)
	})
}

// fuzzSeedsShard is FuzzShardFile's seeds: the valid shard file, a
// truncation, its magic alone, nothing, and inverse factors whose
// compact id encoding is hostile, resealed so each reaches the decode
// check — a gap that runs past n, an escape that repeats the id before
// it, an escaped id of n, an escaped id below its predecessor, and an
// escape listed but never consumed.
func fuzzSeedsShard(tb testing.TB) []fuzzSeed {
	fuzzIndexDir(tb)
	valid := fuzzDir.shard0
	overrun := resealed(tb, valid, 24, func(sec []byte) { sec[len(sec)-1] = 255 })
	return []fuzzSeed{
		{"valid", valid},
		{"truncated", valid[:len(valid)/2]},
		{"magic-only", valid[:8]},
		{"empty", []byte{}},
		{"gap-overrun", overrun},
		{"gap-repeats-id", withFactor(tb, valid, false, func(m *lu.Compact) {
			j := longLine(tb, m)
			escapeAt(m, j, 1, int32(m.Line(j, nil)[0]))
		})},
		{"escape-out-of-range", withFactor(tb, valid, true, func(m *lu.Compact) { escapeAt(m, 0, 0, int32(m.N)) })},
		{"escape-not-ascending", withFactor(tb, valid, true, func(m *lu.Compact) {
			j := longLine(tb, m)
			escapeAt(m, j, 1, int32(m.Line(j, nil)[0]-1))
		})},
		{"escape-count-mismatch", withFactor(tb, valid, true, func(m *lu.Compact) {
			m.Esc = append(m.Esc, 0)
			m.EscPtr[m.N]++
		})},
	}
}

// withFactor returns a copy of shard file data whose L^{-1} (lower) or
// U^{-1} is rewritten by edit, every other section as it was.
func withFactor(tb testing.TB, data []byte, lower bool, edit func(m *lu.Compact)) []byte {
	tb.Helper()
	f, err := mmapio.FromBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	secs := decodedIDs[11]
	if lower {
		secs = decodedIDs[8]
	}
	m := &lu.Compact{}
	ptr, err1 := f.Ints(secs[0])
	val, err2 := f.Floats(secs[1])
	gap, err3 := f.Bytes(secs[2])
	escPtr, err4 := f.Ints(secs[3])
	esc, err5 := f.Int32s(secs[4])
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		tb.Fatal(err)
	}
	m.N, m.Ptr, m.Val, m.Gap, m.EscPtr, m.Esc = len(ptr)-1, slices.Clone(ptr), slices.Clone(val), slices.Clone(gap), slices.Clone(escPtr), slices.Clone(esc)
	edit(m)
	w := mmapio.NewWriter()
	for _, s := range containerSections(tb, data) {
		switch s.id {
		case secs[0]:
			w.AddInts(s.id, m.Ptr)
		case secs[1]:
			w.AddFloats(s.id, m.Val)
		case secs[2]:
			w.AddBytes(s.id, m.Gap)
		case secs[3]:
			w.AddInts(s.id, m.EscPtr)
		case secs[4]:
			w.AddInt32s(s.id, m.Esc)
		default:
			copySection(tb, w, f, data, s)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// copySection adds section s of container f (whose bytes are data) to
// w, with its kind.
func copySection(tb testing.TB, w *mmapio.Writer, f *mmapio.File, data []byte, s containerSection) {
	tb.Helper()
	var err error
	switch binary.LittleEndian.Uint32(data[s.entry+4:]) {
	case mmapio.KindBytes:
		var b []byte
		if b, err = f.Bytes(s.id); err == nil {
			w.AddBytes(s.id, b)
		}
	case mmapio.KindInt32:
		var xs []int32
		if xs, err = f.Int32s(s.id); err == nil {
			w.AddInt32s(s.id, xs)
		}
	case mmapio.KindInt64:
		var xs []int
		if xs, err = f.Ints(s.id); err == nil {
			w.AddInts(s.id, xs)
		}
	default:
		var xs []float64
		if xs, err = f.Floats(s.id); err == nil {
			w.AddFloats(s.id, xs)
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// longLine returns the first line of m with two entries or more.
func longLine(tb testing.TB, m *lu.Compact) int {
	tb.Helper()
	for j := 0; j < m.N; j++ {
		if m.Ptr[j+1]-m.Ptr[j] >= 2 {
			return j
		}
	}
	tb.Fatal("no line of two entries")
	return 0
}

// escapeAt stores entry k of line j of m as an escape of id: its gap
// byte becomes 0 and id joins the line's escapes after those of the
// line's earlier entries.
func escapeAt(m *lu.Compact, j, k int, id int32) {
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

// TestShardFileSeedsRefused: every FuzzShardFile seed but the valid
// file is refused by an eager open — the hostile encodings by the
// decode check, before a query could read them.
func TestShardFileSeedsRefused(t *testing.T) {
	dir := fuzzIndexDir(t)
	path := filepath.Join(dir, "shard-0000.idx")
	defer func() {
		if err := os.WriteFile(path, fuzzDir.shard0, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	for _, s := range fuzzSeedsShard(t) {
		if err := os.WriteFile(path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
		sx, err := Open(dir, LoadOptions{})
		if err == nil {
			sx.Close()
		}
		switch {
		case s.name == "valid" && err != nil:
			t.Errorf("the valid shard file is refused: %v", err)
		case s.name != "valid" && err == nil:
			t.Errorf("seed %s accepted", s.name)
		case (strings.HasPrefix(s.name, "gap-") || strings.HasPrefix(s.name, "escape-")) && !strings.Contains(err.Error(), "corrupt index"):
			t.Errorf("seed %s: refused before the decode check: %v", s.name, err)
		}
	}
}

// fuzzSeed is one named seed input, named as its committed corpus
// entry.
type fuzzSeed struct {
	name string
	data []byte
}

// fuzzSeedsPartition is FuzzCutsFile's seeds: the valid container, a
// truncation, nothing, a cut-count bomb (the table claims n² cut
// sources), a data-checksum flip, and finding A's edits resealed so
// they reach the cross-checks — two nodes of different shards swapped
// in the assignment, and a cut whose source moved to another shard.
func fuzzSeedsPartition(tb testing.TB) []fuzzSeed {
	fuzzIndexDir(tb)
	valid := fuzzDir.partition
	bomb := withSectionCount(tb, valid, partCutSrc, fuzzNodes*fuzzNodes)
	flip := append([]byte{}, valid...)
	flip[mmapioDataStart] ^= 0xff
	swap := resealed(tb, valid, partAssign, func(sec []byte) {
		a, b := sec[4*0:4*1], sec[4*(fuzzNodes-1):4*fuzzNodes]
		var tmp [4]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	})
	moved := resealed(tb, valid, partCutSrc, func(sec []byte) {
		binary.LittleEndian.PutUint32(sec, fuzzNodes-1)
	})
	return []fuzzSeed{
		{"valid", valid},
		{"truncated", valid[:len(valid)/2]},
		{"empty", []byte{}},
		{"count-bomb", bomb},
		{"data-checksum-flip", flip},
		{"assignment-swap-resealed", swap},
		{"cut-source-moved-resealed", moved},
	}
}

// fuzzSeedsGraph is FuzzGraphSnapshot's seeds: the valid snapshot, a
// truncation, nothing, an edge-count bomb, a data-checksum flip, finding
// A's moved edge targets resealed (the cross-check against the cut
// lists refuses them) and a resealed negative weight.
func fuzzSeedsGraph(tb testing.TB) []fuzzSeed {
	fuzzIndexDir(tb)
	valid := fuzzDir.graph
	flip := append([]byte{}, valid...)
	flip[mmapioDataStart] ^= 0xff
	moved := resealed(tb, valid, 3, func(sec []byte) {
		for i := 0; i+4 <= len(sec) && i < 4*20; i += 4 {
			v := binary.LittleEndian.Uint32(sec[i:])
			binary.LittleEndian.PutUint32(sec[i:], (v+1)%fuzzNodes)
		}
	})
	negW := resealed(tb, valid, 4, func(sec []byte) {
		binary.LittleEndian.PutUint64(sec, math.Float64bits(-1))
	})
	return []fuzzSeed{
		{"valid", valid},
		{"truncated", valid[:len(valid)/2]},
		{"empty", []byte{}},
		{"edge-count-bomb", withSectionCount(tb, valid, 3, fuzzNodes*fuzzNodes*fuzzNodes)},
		{"data-checksum-flip", flip},
		{"targets-moved-resealed", moved},
		{"negative-weight-resealed", negW},
	}
}

// TestShardFuzzCorpusIsCurrent pins the committed FuzzCutsFile and
// FuzzGraphSnapshot corpora to the seeds of the current format, so a
// format change that leaves a corpus in the old layout fails here until
// it is regenerated from fuzzSeedsPartition and fuzzSeedsGraph. It also
// checks that every seed but "valid" is refused.
func TestShardFuzzCorpusIsCurrent(t *testing.T) {
	dir := fuzzIndexDir(t)
	for _, c := range []struct {
		target, file string
		pristine     []byte
		seeds        []fuzzSeed
	}{
		{"FuzzCutsFile", partitionFileName, fuzzDir.partition, fuzzSeedsPartition(t)},
		{"FuzzGraphSnapshot", graphFileName, fuzzDir.graph, fuzzSeedsGraph(t)},
	} {
		for _, s := range c.seeds {
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", c.target, s.name))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data); string(raw) != want {
				t.Errorf("%s corpus entry %s is not the current seed; regenerate it", c.target, s.name)
			}
			path := filepath.Join(dir, c.file)
			if err := os.WriteFile(path, s.data, 0o644); err != nil {
				t.Fatal(err)
			}
			sx, err := Open(dir, LoadOptions{})
			if err == nil {
				sx.Close()
			}
			if (err == nil) != (s.name == "valid") {
				t.Errorf("%s seed %s: Load error %v", c.target, s.name, err)
			}
			if err := os.WriteFile(path, c.pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
