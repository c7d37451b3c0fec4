package shard

// Native fuzz targets for the sharded-index directory loader: a
// corrupt manifest.json, cuts.bin or shard-NNNN.idx must make Load return an error — never
// panic, never commit memory the directory does not carry. Each target
// prepares one valid saved directory per process and swaps the fuzzed
// file into it per input.
//
// Run with:
//
//	go test -fuzz=FuzzManifest  ./internal/shard
//	go test -fuzz=FuzzCutsFile  ./internal/shard
//	go test -fuzz=FuzzShardFile ./internal/shard

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

var fuzzDir struct {
	once     sync.Once
	dir      string
	manifest []byte // the valid manifest.json
	cuts     []byte // the valid cuts.bin
	shard0   []byte // the valid shard-0000.idx
	err      error
}

// fuzzIndexDir lazily saves one small valid sharded index for the
// process and returns the directory plus the pristine file contents.
func fuzzIndexDir(f *testing.F) string {
	f.Helper()
	fuzzDir.once.Do(func() {
		g := testutil.Clustered(60, 3, 5)
		sx, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
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
		if fuzzDir.manifest, err = os.ReadFile(filepath.Join(dir, ManifestName)); err != nil {
			fuzzDir.err = err
			return
		}
		if fuzzDir.cuts, err = os.ReadFile(filepath.Join(dir, "cuts.bin")); err != nil {
			fuzzDir.err = err
			return
		}
		fuzzDir.shard0, err = os.ReadFile(filepath.Join(dir, "shard-0000.idx"))
		fuzzDir.err = err
	})
	if fuzzDir.err != nil {
		f.Fatal(fuzzDir.err)
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
	sx, err := Load(dir)
	if err != nil {
		return // rejection is the expected outcome
	}
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
	f.Add([]byte(`{"version":5,"nodes":-4,"shards":1}`))
	f.Add([]byte(`{"version":5,"restart":0.95,"nodes":1152921504606846976,"shards":3,"shardFiles":["a","b","c"],"assignmentFile":"assignment.bin","cutsFile":"cuts.bin","graphFile":"graph.tsv","stats":{"nnzShards":[1,1,1]}}`))
	f.Add([]byte(`{"version":5,"restart":0.95,"nodes":60,"shards":3,"shardFiles":["shard-0000.idx","shard-0001.idx","shard-0002.idx"],"assignmentFile":"../../etc/passwd","cutsFile":"cuts.bin","graphFile":"graph.tsv","stats":{"nnzShards":[1,1,1]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, ManifestName, valid, data)
	})
}

func FuzzCutsFile(f *testing.F) {
	dir := fuzzIndexDir(f)
	valid := fuzzDir.cuts
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7]) // truncated mid-count
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // count bomb
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, "cuts.bin", valid, data)
	})
}

func FuzzShardFile(f *testing.F) {
	dir := fuzzIndexDir(f)
	valid := fuzzDir.shard0
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // the issue's "truncated shard-NNNN.idx"
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOneFile(t, dir, "shard-0000.idx", valid, data)
	})
}
