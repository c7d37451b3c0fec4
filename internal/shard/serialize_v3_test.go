package shard

// Persistence tests for the sectioned (v3) directory layout: eager and
// lazy loads must answer bit-identically, lazy opens must touch only the
// shards a query actually solves, and update chains must survive a
// save -> lazy load -> update -> save round trip — the differential
// harness's contract extended over the on-disk boundary.

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// assertSameTopK fails unless both indexes answer a query battery with
// identical bits.
func assertSameTopK(t *testing.T, want, got *ShardedIndex, label string) {
	t.Helper()
	n := want.N()
	for _, q := range []int{0, n / 2, n - 1} {
		a, _, err := want.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := got.TopK(q, 7)
		if err != nil {
			t.Fatalf("%s: TopK: %v", label, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s q=%d: %d vs %d results", label, q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s q=%d rank %d: %v vs %v (not bit-identical)", label, q, i, a[i], b[i])
			}
		}
		pa, err := want.Proximity(q, (q+3)%n)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := got.Proximity(q, (q+3)%n)
		if err != nil {
			t.Fatalf("%s: Proximity: %v", label, err)
		}
		if pa != pb {
			t.Fatalf("%s q=%d: proximity %v vs %v", label, q, pa, pb)
		}
	}
}

// TestV3DirectoryLoadModesBitIdentical saves once and reloads through
// every mode x laziness combination.
func TestV3DirectoryLoadModesBitIdentical(t *testing.T) {
	g := testutil.Clustered(300, 4, 21)
	built, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}

	// The manifest must be the current version and carry per-shard nnz
	// counts.
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion {
		t.Fatalf("manifest version = %d, want %d", m.Version, manifestVersion)
	}
	if len(m.Stats.NNZShards) != built.Shards() {
		t.Fatalf("manifest has %d nnz counts for %d shards", len(m.Stats.NNZShards), built.Shards())
	}

	loads := []struct {
		label string
		opt   LoadOptions
	}{
		{"eager", LoadOptions{}},
		{"lazy", LoadOptions{Lazy: true}},
	}
	for _, lc := range loads {
		sx, err := Open(dir, lc.opt)
		if err != nil {
			t.Fatalf("%s: %v", lc.label, err)
		}
		assertSameTopK(t, built, sx, lc.label)
		if err := sx.Close(); err != nil {
			t.Fatalf("%s: Close: %v", lc.label, err)
		}
	}
}

// TestLazyOpenTouchesOnlyQueriedShards pins the instant-cold-start
// property: with disconnected components pinned to separate shards, a
// query in one component must never open the other component's shard
// file — enforced by deleting that file from disk before querying.
func TestLazyOpenTouchesOnlyQueriedShards(t *testing.T) {
	g := testutil.Disconnected(200, 2, 5)
	// Pin each component to its own shard: Disconnected builds comps of
	// equal size over contiguous id ranges.
	assign := make([]int, g.N())
	for u := range assign {
		if u >= g.N()/2 {
			assign[u] = 1
		}
	}
	built, err := Build(g, Options{Assignment: assign, Reorder: reorder.Hybrid, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	sx, err := Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	if opened := sx.Statz().ShardsOpened; opened != 0 {
		t.Fatalf("open touched %d shard files before any query", opened)
	}
	// Shard 1's file is gone: only a query into component 0 can work.
	if err := os.Remove(filepath.Join(dir, "shard-0001.idx")); err != nil {
		t.Fatal(err)
	}
	want, _, err := built.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sx.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rank %d: %v vs %v", i, want[i], got[i])
		}
	}
	if opened := sx.Statz().ShardsOpened; opened != 1 {
		t.Fatalf("query into shard 0 left %d shards opened, want 1", opened)
	}
}

// TestMmapUpdateSaveChain runs the differential harness's oracle over a
// save -> lazy load -> update -> save chain: updates applied to a
// lazily loaded epoch must answer bit-identically to a pinned
// from-scratch rebuild, before and after another round trip.
func TestMmapUpdateSaveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testutil.Clustered(240, 3, 77)
	built, err := Build(g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 77, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "epoch0")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	sx, err := Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		d := testutil.RandomDelta(rng, sx.Graph(), 5)
		next, _, err := sx.Apply(d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sx = next
	}
	oracle, err := Build(sx.Graph(), Options{
		Restart:    sx.Restart(),
		Reorder:    reorder.Hybrid,
		Seed:       77,
		Assignment: sx.Assignment(),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopK(t, oracle, sx, "updated-over-load")

	// Save the successor epoch and remap it: still bit-identical.
	dir2 := filepath.Join(t.TempDir(), "epoch3")
	if err := sx.Save(dir2); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir2, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameTopK(t, oracle, re, "resaved-reloaded")
	if re.Epoch() != sx.Epoch() {
		t.Fatalf("epoch lost in round trip: %d vs %d", re.Epoch(), sx.Epoch())
	}
}

// TestEagerOpenSurfacesShardErrors truncates one shard file: an eager
// Open must fail with an ordinary error (releasing the shards it did
// open), and a lazy Open must fail only when the broken shard is
// actually forced.
func TestEagerOpenSurfacesShardErrors(t *testing.T) {
	g := testutil.Clustered(120, 2, 9)
	built, err := Build(g, Options{Shards: 2, Reorder: reorder.Hybrid, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-0001.idx")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, LoadOptions{}); err == nil {
		t.Fatal("eager Open accepted a truncated shard file")
	}
	sx, err := Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatalf("lazy Open failed before any shard was touched: %v", err)
	}
	defer sx.Close()
	if err := sx.parts[1].openIndex(); err == nil {
		t.Fatal("forcing the truncated shard open did not fail")
	}
}
