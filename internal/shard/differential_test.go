package shard

// The randomized differential-test harness. Incremental paths are
// where exactness bugs hide, so after every randomized update sequence
// the updated index is cross-checked on all four query surfaces —
// TopK, TopKBatch, TopKPersonalized and Proximity — against two
// independent oracles:
//
//   1. a from-scratch Build on the final graph with the final
//      assignment pinned, which must agree BIT-FOR-BIT (same floats,
//      same order): Apply rebuilds dirty blocks through the same code
//      path Build uses, so any divergence is a bug, not noise; and
//   2. the rwr power-iteration reference, tolerance-aware (1e-9),
//      which ties the whole chain back to the paper's Equation (1)
//      independently of the factorization machinery.
//
// Every failure message leads with the seed; re-running the harness
// with that seed reproduces the exact graph, update sequence and
// queries.

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/testutil"
)

// differentialShardCounts is the sweep the issue pins: 1, 2, 8 and n
// (0 encodes "one shard per node").
var differentialShardCounts = []int{1, 2, 8, 0}

func TestDifferentialUpdates(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, shards := range differentialShardCounts {
		for _, seed := range seeds {
			seed, shards := seed, shards
			rng := rand.New(rand.NewSource(seed))
			g := testutil.Random(rng)
			s := shards
			if s == 0 {
				s = g.N()
			}
			sx, err := Build(g, Options{Shards: s, Reorder: reorder.Hybrid, Seed: seed, StalenessLimit: 8})
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, s, err)
			}
			rounds := 3 + rng.Intn(3)
			for round := 0; round < rounds; round++ {
				d := testutil.RandomDelta(rng, sx.Graph(), 6)
				next, _, err := sx.Apply(d)
				if err != nil {
					t.Fatalf("seed %d shards %d round %d: Apply: %v", seed, shards, round, err)
				}
				sx = next
			}
			diffCheck(t, rng, sx, seed, shards)
		}
	}
}

// diffCheck runs the two-oracle cross-check over all query surfaces.
func diffCheck(t *testing.T, rng *rand.Rand, sx *ShardedIndex, seed int64, shards int) {
	t.Helper()
	g := sx.Graph()
	n := g.N()
	scratch, err := Build(g, Options{
		Restart:    sx.Restart(),
		Reorder:    reorder.Hybrid,
		Seed:       seed,
		Assignment: sx.Assignment(),
	})
	if err != nil {
		t.Fatalf("seed %d shards %d: oracle rebuild: %v", seed, shards, err)
	}
	a := g.ColumnNormalized()

	qs := make([]int, 4)
	for i := range qs {
		qs[i] = rng.Intn(n)
	}
	k := 1 + rng.Intn(10)

	// TopK: bit-identical vs the rebuild, tolerance-aware vs iteration.
	for _, q := range qs {
		got, gs, err := sx.TopK(q, k)
		if err != nil {
			t.Fatalf("seed %d: TopK: %v", seed, err)
		}
		if !gs.Converged {
			t.Fatalf("seed %d shards %d q=%d: push did not converge", seed, shards, q)
		}
		want, _, err := scratch.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d shards %d q=%d k=%d: %d vs %d results", seed, shards, q, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d shards %d q=%d k=%d i=%d: updated %v, rebuilt %v (not bit-identical)",
					seed, shards, q, k, i, got[i], want[i])
			}
		}
		oracle, err := rwr.TopK(a, q, k, sx.Restart())
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(got, trimZeros(oracle), scoreTol) {
			t.Fatalf("seed %d shards %d q=%d k=%d: vs iterative\n got %v\nwant %v", seed, shards, q, k, got, trimZeros(oracle))
		}
	}

	// TopKBatch: bit-identical per item vs the rebuild's batch path.
	gotB, _, err := sx.TopKBatch(qs, k)
	if err != nil {
		t.Fatalf("seed %d: TopKBatch: %v", seed, err)
	}
	wantB, _, err := scratch.TopKBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if len(gotB[i]) != len(wantB[i]) {
			t.Fatalf("seed %d shards %d batch item %d: %d vs %d results", seed, shards, i, len(gotB[i]), len(wantB[i]))
		}
		for j := range gotB[i] {
			if gotB[i][j] != wantB[i][j] {
				t.Fatalf("seed %d shards %d batch item %d rank %d: %v vs %v", seed, shards, i, j, gotB[i][j], wantB[i][j])
			}
		}
	}

	// TopKPersonalized: bit-identical vs rebuild, tolerance vs iteration.
	seedSet := map[int]float64{qs[0]: 1, qs[1]: 2, (qs[2] + 1) % n: 0.5}
	gotP, _, err := sx.TopKPersonalized(seedSet, k)
	if err != nil {
		t.Fatalf("seed %d: TopKPersonalized: %v", seed, err)
	}
	wantP, _, err := scratch.TopKPersonalized(seedSet, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotP {
		if gotP[i] != wantP[i] {
			t.Fatalf("seed %d shards %d personalized rank %d: %v vs %v", seed, shards, i, gotP[i], wantP[i])
		}
	}
	restart := make([]float64, n)
	total := 0.0
	for _, w := range seedSet {
		total += w
	}
	for node, w := range seedSet {
		restart[node] = w / total
	}
	pvec, _, err := rwr.IterativeVec(a, restart, sx.Restart(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gotP {
		if math.Abs(pvec[r.Node]-r.Score) > scoreTol {
			t.Fatalf("seed %d shards %d personalized node %d: %v vs iterative %v", seed, shards, r.Node, r.Score, pvec[r.Node])
		}
	}

	// Proximity: bit-identical vs rebuild, tolerance vs iteration.
	ivec, _, err := rwr.Iterative(a, qs[0], sx.Restart(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{qs[1], (qs[0] + n/2) % n, n - 1} {
		got, err := sx.Proximity(qs[0], u)
		if err != nil {
			t.Fatalf("seed %d: Proximity: %v", seed, err)
		}
		want, err := scratch.Proximity(qs[0], u)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d shards %d proximity (%d,%d): %v vs rebuilt %v", seed, shards, qs[0], u, got, want)
		}
		if math.Abs(got-ivec[u]) > scoreTol {
			t.Fatalf("seed %d shards %d proximity (%d,%d): %v vs iterative %v", seed, shards, qs[0], u, got, ivec[u])
		}
	}
}

// TestDifferentialLoadModes extends the harness across the on-disk
// boundary: after a randomized update chain the index is saved and
// reloaded through both load paths — v3-eager (every shard opened up
// front) and v3-lazy (each shard opened by the first query that solves
// it) — and each reload must pass the same two-oracle cross-check (bit-identical to a pinned
// from-scratch rebuild, 1e-9 vs power iteration) as the in-memory
// index that produced the files.
func TestDifferentialLoadModes(t *testing.T) {
	const seed = int64(9)
	rng := rand.New(rand.NewSource(seed))
	g := testutil.Clustered(220, 4, seed)
	sx, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: seed, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		d := testutil.RandomDelta(rng, sx.Graph(), 6)
		next, _, err := sx.Apply(d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sx = next
	}
	dir := t.TempDir()
	v3Dir := filepath.Join(dir, "v3")
	if err := sx.Save(v3Dir); err != nil {
		t.Fatal(err)
	}
	loads := []struct {
		label string
		open  func() (*ShardedIndex, error)
	}{
		{"v3-eager", func() (*ShardedIndex, error) { return Open(v3Dir, LoadOptions{}) }},
		{"v3-lazy", func() (*ShardedIndex, error) { return Open(v3Dir, LoadOptions{Lazy: true}) }},
	}
	for _, lc := range loads {
		loaded, err := lc.open()
		if err != nil {
			t.Fatalf("%s: %v", lc.label, err)
		}
		// A fresh rng per mode keeps the query draw identical across
		// modes, so both are checked on the same battery.
		diffCheck(t, rand.New(rand.NewSource(seed+100)), loaded, seed, 4)
		if err := loaded.Close(); err != nil {
			t.Fatalf("%s: Close: %v", lc.label, err)
		}
	}
}
