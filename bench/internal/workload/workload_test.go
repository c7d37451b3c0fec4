package workload

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
)

func tsv(t *testing.T, spec GraphSpec, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTSV(&buf, GenGraph(spec, seed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGraphIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := tsv(t, Smoke, 7), tsv(t, Smoke, 7), tsv(t, Smoke, 8)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different edge lists")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same edge list")
	}
}

func TestGraphShape(t *testing.T) {
	edges := GenGraph(Smoke, 1)
	seen := map[Edge]bool{}
	out := make([]bool, Smoke.Nodes)
	for _, e := range edges {
		if e.From == e.To || e.From < 0 || e.To < 0 || e.From >= Smoke.Nodes || e.To >= Smoke.Nodes {
			t.Fatalf("bad edge %v", e)
		}
		if seen[e] {
			t.Fatalf("edge %v repeated", e)
		}
		seen[e] = true
		out[e.From] = true
	}
	for u, ok := range out {
		if !ok {
			t.Fatalf("node %d has no out-edge", u)
		}
	}
}

func TestRequestListsAreAFunctionOfTheSeed(t *testing.T) {
	for name, gen := range map[string]func(n, count int, seed int64) []int{
		"uniform": UniformQueries, "hotset": HotsetQueries, "oracle": OracleQueries,
	} {
		a, b, c := gen(5000, 64, 3), gen(5000, 64, 3), gen(5000, 64, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same list", name)
		}
	}
	// cluster_topk replays a prefix of topk_uniform's list.
	if long, short := UniformQueries(5000, 400, 3), UniformQueries(5000, 100, 3); !reflect.DeepEqual(long[:100], short) {
		t.Error("a shorter uniform list is not a prefix of a longer one")
	}
}

func TestLRUHits(t *testing.T) {
	for _, c := range []struct {
		qs       []int
		capacity int
		want     int
	}{
		{nil, 2, 0},
		{[]int{1, 1, 1}, 1, 2},
		{[]int{1, 2, 1, 2}, 2, 2},
		{[]int{1, 2, 3, 1}, 2, 0},             // 1 was evicted by 3
		{[]int{1, 2, 1, 3, 2}, 2, 1},          // the hit on 1 makes 2 the victim
		{[]int{1, 2, 3, 3, 2, 1, 4, 1}, 3, 4}, // 3, 2, 1 hit; 4 evicts 3; 1 hits
	} {
		if got := LRUHits(c.qs, c.capacity); got != c.want {
			t.Errorf("LRUHits(%v, %d) = %d, want %d", c.qs, c.capacity, got, c.want)
		}
	}
}

func TestHotsetHitCountIsAFunctionOfTheList(t *testing.T) {
	qs := HotsetQueries(Reference.Nodes, 20000, 5)
	hits := LRUHits(qs, CacheEntries)
	if again := LRUHits(HotsetQueries(Reference.Nodes, 20000, 5), CacheEntries); again != hits {
		t.Errorf("hit count %d, then %d, on the same list", hits, again)
	}
	// The hot set fits the cache, so nearly every hot query after its
	// first hits: the ratio sits a little under HotShare.
	if ratio := float64(hits) / float64(len(qs)); ratio < HotShare-0.05 || ratio > HotShare {
		t.Errorf("hit ratio %.3f, want just under %.2f", ratio, HotShare)
	}
}

func TestUpdateEdgesAreFresh(t *testing.T) {
	edges := GenGraph(Smoke, 1)
	seen := map[Edge]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	for _, batch := range UpdateEdges(Smoke.Nodes, edges, 50, 1) {
		for _, e := range batch {
			if seen[e] || e.From == e.To {
				t.Fatalf("update edge %v is in the graph, repeated or a loop", e)
			}
			seen[e] = true
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	for _, c := range []struct {
		vs           []float64
		median, mean float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 4},
		{[]float64{3, 1, 2}, 2, 2},
		{[]float64{4, 1, 3, 2}, 2.5, 2.5},
		{[]float64{1, 1, 1, 100}, 1, 25.75}, // one slow pass does not move the median
	} {
		if got := Median(c.vs); got != c.median {
			t.Errorf("Median(%v) = %v, want %v", c.vs, got, c.median)
		}
		if got := Mean(c.vs); got != c.mean {
			t.Errorf("Mean(%v) = %v, want %v", c.vs, got, c.mean)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[n-1-i] = float64(i + 1) // descending: Percentile must sort
		}
		return vs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // 10 samples beyond
		{100, 91, 0, false},   // 9 beyond
		{100, 99, 0, false},   // 1 beyond
		{1000, 99, 990, true}, // 10 beyond
		{1000, 99.9, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false}, // rank 10, 9 beyond
		{0, 50, 0, false},
	} {
		got, ok := Percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("Percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// Expected values are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := Quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
}

func TestProcReaders(t *testing.T) {
	pid := os.Getpid()
	if _, err := CPUSeconds(pid); err != nil {
		t.Error(err)
	}
	if mb, err := PeakRSSMB(pid); err != nil || mb <= 0 {
		t.Errorf("PeakRSSMB = %v, %v", mb, err)
	}
}
