package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

// TestOpenEngine covers the ways the flags open an engine: a directory
// of one shard or several loads, and no -load-index, a single-file
// index, a coordinator without a directory or a snapshot directory
// without a WAL directory is a usage error (exit 2) naming what to do
// before anything is opened.
func TestOpenEngine(t *testing.T) {
	g := gen.PlantedPartition(60, 3, 0.2, 0.02, 1)
	dir := t.TempDir()

	t.Run("no index directory refused", func(t *testing.T) {
		_, _, err := openEngine(engineFlags{})
		var usage usageError
		if !errors.As(err, &usage) || !strings.Contains(err.Error(), "kdash -graph G -shards N -save-index DIR") {
			t.Fatalf("err = %v, want a usage error naming the build command", err)
		}
	})

	t.Run("single-file index refused", func(t *testing.T) {
		ix, _, err := core.BuildBlock(g, core.BuildOptions{Reorder: reorder.Hybrid}, reorder.Block{Owned: g.N()}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "graph.idx")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, _, err = openEngine(engineFlags{loadIndex: path})
		var usage usageError
		if !errors.As(err, &usage) || !strings.Contains(err.Error(), "kdash -graph G -shards N -save-index DIR") {
			t.Fatalf("err = %v, want a usage error naming the rebuild command", err)
		}
	})

	t.Run("sharded directory loads", func(t *testing.T) {
		built, err := shard.Build(g, shard.Options{Shards: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, "idx")
		if err := built.Save(idx); err != nil {
			t.Fatal(err)
		}
		engine, mode, err := openEngine(engineFlags{loadIndex: idx})
		if err != nil {
			t.Fatal(err)
		}
		if engine.N() != g.N() || engine.Statz().Shards != 3 || mode != "parse" {
			t.Fatalf("loaded n=%d shards=%d mode %q, want %d, 3, parse", engine.N(), engine.Statz().Shards, mode, g.N())
		}
	})

	t.Run("one-shard directory loads", func(t *testing.T) {
		built, err := shard.Build(g, shard.Options{Shards: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, "one")
		if err := built.Save(idx); err != nil {
			t.Fatal(err)
		}
		engine, mode, err := openEngine(engineFlags{loadIndex: idx})
		if err != nil {
			t.Fatal(err)
		}
		if engine.N() != g.N() || engine.Statz().Shards != 1 || mode != "parse" {
			t.Fatalf("loaded n=%d shards=%d mode %q, want %d, 1, parse", engine.N(), engine.Statz().Shards, mode, g.N())
		}
	})

	t.Run("snapshot dir needs a wal dir", func(t *testing.T) {
		_, _, err := openEngine(engineFlags{loadIndex: filepath.Join(dir, "idx"), walSnapshotDir: t.TempDir()})
		var usage usageError
		if !errors.As(err, &usage) || !strings.Contains(err.Error(), "-wal-dir") {
			t.Fatalf("err = %v, want a usage error naming -wal-dir", err)
		}
	})

	t.Run("coordinator needs a directory", func(t *testing.T) {
		_, _, err := openEngine(engineFlags{coordinator: "127.0.0.1:1"})
		var usage usageError
		if !errors.As(err, &usage) {
			t.Fatalf("err = %v, want a usage error", err)
		}
	})
}

// TestNegativeCountsRefused: a negative -cache or -max-batch is a
// usage error (exit 2) naming the flag — it used to fall back to the
// default silently — while zero keeps its documented meaning.
func TestNegativeCountsRefused(t *testing.T) {
	for _, flag := range []string{"cache", "max-batch"} {
		err := negativeCount(count{"cache", 1}, count{flag, -2}, count{"max-batch", 0})
		var usage usageError
		if !errors.As(err, &usage) || !strings.Contains(err.Error(), "-"+flag+" -2") {
			t.Errorf("-%s -2: err = %v, want a usage error naming the flag", flag, err)
		}
	}
	if err := negativeCount(count{"cache", 0}, count{"max-batch", 0}); err != nil {
		t.Errorf("zero counts refused: %v", err)
	}
}
