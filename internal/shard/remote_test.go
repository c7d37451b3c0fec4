package shard

// In-package test for the distributed-serving seam: a RemoteSolver
// backed directly by a second copy of the index (its SolveShardSparse
// worker surface — no RPC, no processes) must leave
// every answer bit-identical to local solving, because the push runs
// the same commits in the same order on the same 64-bit results. The
// full loopback-TCP and multi-process versions of this check live in
// internal/placement and internal/distributed.

import (
	"math/rand"
	"reflect"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// indexSolver adapts a factor-holding index's worker surface to the
// RemoteSolver interface.
type indexSolver struct{ sx *ShardedIndex }

func (r indexSolver) SolveSparse(si int, idx []int, val []float64) ([]float64, []int, error) {
	return r.sx.SolveShardSparse(si, idx, val)
}

func TestRemoteSolverSeamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.Random(rng)
	local, err := Build(g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 31, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := local.Save(dir); err != nil {
		t.Fatal(err)
	}
	worker, err := Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	co, err := Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	co.SetFactorless()
	co.SetRemoteSolver(indexSolver{sx: worker})

	n := co.N()
	for si := 0; si < co.Shards(); si++ {
		if co.PartLen(si) != local.PartLen(si) {
			t.Fatalf("shard %d shape: remote %d vs local %d", si, co.PartLen(si), local.PartLen(si))
		}
	}

	for i := 0; i < 5; i++ {
		q, k := rng.Intn(n), 1+rng.Intn(8)
		got, gqs, err := co.TopK(q, k)
		if err != nil {
			t.Fatalf("remote TopK(%d): %v", q, err)
		}
		want, wqs, err := local.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gqs, wqs) {
			t.Fatalf("TopK(%d,%d) diverged through the remote seam", q, k)
		}
	}

	batch := make([]int, 6)
	for i := range batch {
		batch[i] = rng.Intn(n)
	}
	gotB, gbs, err := co.TopKBatch(batch, 5)
	if err != nil {
		t.Fatalf("remote TopKBatch: %v", err)
	}
	wantB, wbs, err := local.TopKBatch(batch, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, wantB) || !reflect.DeepEqual(gbs, wbs) {
		t.Fatal("TopKBatch diverged through the remote seam")
	}

	seeds := map[int]float64{rng.Intn(n): 1, rng.Intn(n): 0.5}
	gotP, _, err := co.TopKPersonalized(seeds, 5)
	if err != nil {
		t.Fatalf("remote TopKPersonalized: %v", err)
	}
	wantP, _, err := local.TopKPersonalized(seeds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatal("TopKPersonalized diverged through the remote seam")
	}

	q, u := rng.Intn(n), rng.Intn(n)
	gotPx, err := co.Proximity(q, u)
	if err != nil {
		t.Fatal(err)
	}
	wantPx, err := local.Proximity(q, u)
	if err != nil {
		t.Fatal(err)
	}
	if gotPx != wantPx {
		t.Fatalf("Proximity(%d,%d): %v != %v", q, u, gotPx, wantPx)
	}

	// The worker surface rejects out-of-range shards instead of faulting.
	if _, _, err := worker.SolveShardSparse(-1, nil, nil); err == nil {
		t.Fatal("SolveShardSparse(-1) must error")
	}
	if _, _, err := worker.SolveShardSparse(co.Shards(), nil, nil); err == nil {
		t.Fatal("SolveShardSparse(out of range) must error")
	}
}
