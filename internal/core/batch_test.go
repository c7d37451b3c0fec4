package core

import (
	"math"
	"math/rand"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/reorder"
)

func batchTestIndex(t *testing.T, seed int64, n int) *Index {
	t.Helper()
	g := gen.PlantedPartition(n, 4, 0.2, 0.02, seed)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestTopKBatchMatchesSingle is the monolithic half of the batch
// exactness property: batched answers must be identical — node ids and
// bit-equal scores — to per-query TopK, across random graphs and the
// acceptance batch sizes.
func TestTopKBatchMatchesSingle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ix := batchTestIndex(t, seed, 150)
		rng := rand.New(rand.NewSource(seed))
		for _, nb := range []int{1, 7, 64} {
			qs := make([]int, nb)
			for i := range qs {
				qs[i] = rng.Intn(ix.N())
			}
			got, stats, err := ix.TopKBatch(qs, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want, wantStats, err := ix.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(got[i]) != len(want) {
					t.Fatalf("seed %d nb %d query %d: %d results, want %d", seed, nb, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j].Node != want[j].Node || got[i][j].Score != want[j].Score {
						t.Errorf("seed %d nb %d query %d rank %d: %+v vs %+v", seed, nb, i, j, got[i][j], want[j])
					}
				}
				if stats[i] != wantStats {
					t.Errorf("seed %d nb %d query %d: stats %+v vs %+v", seed, nb, i, stats[i], wantStats)
				}
			}
		}
	}
}

func TestSearchBatchExclude(t *testing.T) {
	ix := batchTestIndex(t, 1, 120)
	queries := []BatchQuery{
		{Q: 3, K: 4},
		{Q: 3, K: 4, Exclude: map[int]bool{3: true}},
		{Q: 9, K: 2, Exclude: map[int]bool{9: true, 11: true}},
	}
	got, _, err := ix.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, bq := range queries {
		want, _, err := ix.Search(bq.Q, SearchOptions{K: bq.K, Exclude: bq.Exclude})
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Errorf("query %d rank %d: %+v vs %+v", i, j, got[i][j], want[j])
			}
		}
		for _, r := range got[i] {
			if bq.Exclude[r.Node] {
				t.Errorf("query %d: excluded node %d in answer", i, r.Node)
			}
		}
	}
}

// TestSearchBatchValidatesUpFront checks that a bad query anywhere in the
// block fails the whole batch before any work runs.
func TestSearchBatchValidatesUpFront(t *testing.T) {
	ix := batchTestIndex(t, 1, 60)
	for _, queries := range [][]BatchQuery{
		{{Q: 0, K: 3}, {Q: -1, K: 3}},
		{{Q: 0, K: 3}, {Q: ix.N(), K: 3}},
		{{Q: 0, K: 3}, {Q: 1, K: 0}},
		{{Q: 0, K: 3}, {Q: 1, K: -2}},
	} {
		if _, _, err := ix.SearchBatch(queries); err == nil {
			t.Errorf("queries %+v: no error", queries)
		}
	}
	if rs, stats, err := ix.SearchBatch(nil); err != nil || len(rs) != 0 || len(stats) != 0 {
		t.Errorf("empty batch: %v %v %v", rs, stats, err)
	}
}

// TestPersonalizedAfterBatchRefactor guards the shared-workspace refactor
// against regressions in the multi-seed path: the same query through
// TopKPersonalized and a single-seed Search must agree.
func TestPersonalizedAfterBatchRefactor(t *testing.T) {
	ix := batchTestIndex(t, 3, 90)
	single, _, err := ix.TopK(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	pers, _, err := ix.TopKPersonalized(map[int]float64{5: 2.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(pers) {
		t.Fatalf("%d vs %d results", len(single), len(pers))
	}
	for i := range single {
		if single[i].Node != pers[i].Node || math.Abs(single[i].Score-pers[i].Score) > 1e-12 {
			t.Errorf("rank %d: %+v vs %+v", i, single[i], pers[i])
		}
	}
}
