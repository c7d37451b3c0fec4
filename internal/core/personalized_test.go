package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/topk"
)

func TestPersonalizedMatchesIterativeOracle(t *testing.T) {
	g := gen.PlantedPartition(150, 4, 0.2, 0.01, 1)
	a := g.ColumnNormalized()
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []map[int]float64{
		{3: 1},
		{3: 1, 80: 1},
		{3: 5, 80: 1, 149: 2},
		{0: 0.1, 1: 0.1, 2: 0.1},
	}
	for ci, seeds := range cases {
		restart := make([]float64, g.N())
		total := 0.0
		for _, w := range seeds {
			total += w
		}
		for node, w := range seeds {
			restart[node] = w / total
		}
		want, _, err := rwr.IterativeVec(a, restart, ix.Restart(), 1e-14, 100000)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := topk.FromVector(want, 10)
		got, _, err := ix.TopKPersonalized(seeds, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(got, wantTop, 1e-8) {
			t.Errorf("case %d: got %v, want %v", ci, got, wantTop)
		}
	}
}

func TestPersonalizedSingleSeedEqualsTopK(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 2)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 50, 119} {
		a, _, err := ix.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ix.TopKPersonalized(map[int]float64{q: 7.5}, 8) // weight normalises away
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q=%d: lengths differ", q)
		}
		for i := range a {
			if a[i].Node != b[i].Node || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
				t.Errorf("q=%d rank %d: %v vs %v", q, i, a[i], b[i])
			}
		}
	}
}

func TestPersonalizedPropertyRandomSeedSets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		g := gen.ErdosRenyi(n, 5*n, seed)
		a := g.ColumnNormalized()
		ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
		if err != nil {
			return false
		}
		seeds := map[int]float64{}
		for len(seeds) < 1+rng.Intn(4) {
			seeds[rng.Intn(n)] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(8)
		got, _, err := ix.TopKPersonalized(seeds, k)
		if err != nil {
			return false
		}
		restart := make([]float64, n)
		total := 0.0
		for _, w := range seeds {
			total += w
		}
		for node, w := range seeds {
			restart[node] = w / total
		}
		want, _, err := rwr.IterativeVec(a, restart, ix.Restart(), 1e-14, 100000)
		if err != nil {
			return false
		}
		return sameAnswerSet(trimZeros(got), trimZeros(topk.FromVector(want, k)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPersonalizedPrunes(t *testing.T) {
	g := gen.PlantedPartition(300, 6, 0.15, 0.003, 3)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.TopKPersonalized(map[int]float64{5: 1, 60: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Terminated {
		t.Error("expected early termination with seeds inside communities")
	}
	if st.ProximityComputations > g.N()/2 {
		t.Errorf("personalized search computed %d proximities on a %d-node graph", st.ProximityComputations, g.N())
	}
}

func TestPersonalizedValidation(t *testing.T) {
	g := gen.ErdosRenyi(20, 60, 4)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Degree})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.TopKPersonalized(nil, 3); err == nil {
		t.Error("expected error for empty seed set")
	}
	if _, _, err := ix.TopKPersonalized(map[int]float64{25: 1}, 3); err == nil {
		t.Error("expected error for out-of-range seed")
	}
	if _, _, err := ix.TopKPersonalized(map[int]float64{1: 0}, 3); err == nil {
		t.Error("expected error for zero weight")
	}
	if _, _, err := ix.TopKPersonalized(map[int]float64{1: -2}, 3); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, _, err := ix.TopKPersonalized(map[int]float64{1: 1}, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

// TestPersonalizedAfterBatchRefactor guards the pooled search workspace
// in the multi-seed path: the same query through TopKPersonalized and a
// single-seed Search must agree.
func TestPersonalizedAfterBatchRefactor(t *testing.T) {
	ix := plantedIndex(t, 3, 90)
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
