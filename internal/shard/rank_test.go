package shard

// Exactness of the pruned rank. TopK and TopKPersonalized rank with
// Algorithm 4 over the graph snapshot, skipping every node whose
// Definition 2 estimate falls below the k-th score; a heap scan of every
// entry of the push's solution is the unpruned reference. Both read the
// same score source, so they must agree bit for bit — the estimate may
// only ever skip nodes that could not have entered the answer.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kdash/internal/core"
	"kdash/internal/rwr"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

// heapScan is the unpruned rank: every positive, non-excluded entry of
// the solution offered to one heap.
func heapScan(x []float64, k int, exclude map[int]bool) []topk.Result {
	heap := topk.New(k)
	for g, v := range x {
		if v > 0 && !exclude[g] {
			heap.Push(g, v)
		}
	}
	return heap.Results()
}

// solution is the push's accumulated solution for a scaled restart
// vector, in global node order: what ProximityVector returns for a
// single seed.
func solution(t *testing.T, sx *ShardedIndex, seeds map[int]float64) []float64 {
	t.Helper()
	nodes := seedNodesSorted(seeds)
	mass := make([]float64, len(nodes))
	for i, g := range nodes {
		mass[i] = seeds[g]
	}
	st, _, err := sx.runPush(nil, nil, nodes, mass, nil, 0)
	if err != nil {
		sx.putPushState(st)
		t.Fatal(err)
	}
	parts := st.materialize()
	sx.putPushState(st)
	x := make([]float64, sx.N())
	for si, v := range parts {
		for lv, p := range v {
			x[sx.parts[si].nodes[lv]] = p
		}
	}
	return x
}

func sameBits(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestPrunedRankMatchesHeapScan sweeps the shapes (the disconnected and
// self-loop-heavy ones exercise unreachable nodes and c'(u)), random
// graphs, shard counts 1, 2, 8 and n (where every edge is a cut edge, so
// Amax(v) must come from the whole graph), two restart probabilities, k
// from 1 to past n, exclusions and personalized seed sets.
func TestPrunedRankMatchesHeapScan(t *testing.T) {
	graphs := testutil.Shapes(3)
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 4; i++ {
		graphs[fmt.Sprintf("random%d", i)] = testutil.Random(rng)
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)

	cases := 0
	for _, name := range names {
		g := graphs[name]
		n := g.N()
		for _, shards := range []int{1, 2, 8, n} {
			for _, c := range []float64{rwr.DefaultRestart, 0.3} {
				sx := buildSharded(t, g, shards, c)
				ks := []int{1, 5, 64, n + 3}
				check := func(label string, got []topk.Result, err error, want []topk.Result) {
					t.Helper()
					cases++
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s:\npruned rank %v\nheap scan   %v", label, got, want)
					}
				}
				for _, q := range []int{0, n - 1, rng.Intn(n), rng.Intn(n)} {
					x, err := sx.ProximityVector(q)
					if err != nil {
						t.Fatal(err)
					}
					exclude := map[int]bool{q: true, rng.Intn(n): true}
					for _, k := range ks {
						for _, ex := range []map[int]bool{nil, exclude} {
							got, _, err := sx.Search(q, core.SearchOptions{K: k, Exclude: ex})
							check(fmt.Sprintf("%s shards=%d c=%v q=%d k=%d exclude=%v", name, shards, c, q, k, ex), got, err, heapScan(x, k, ex))
						}
					}
				}
				for trial := 0; trial < 2; trial++ {
					weights := map[int]float64{}
					for len(weights) < 1+trial*2 && len(weights) < n {
						weights[rng.Intn(n)] = 0.25 + rng.Float64()
					}
					// TopKPersonalized's normalisation, in its order.
					nodes := seedNodesSorted(weights)
					total := 0.0
					for _, v := range nodes {
						total += weights[v]
					}
					scaled := map[int]float64{}
					for _, v := range nodes {
						scaled[v] = sx.c * weights[v] / total
					}
					x := solution(t, sx, scaled)
					for _, k := range ks {
						got, _, err := sx.TopKPersonalized(weights, k)
						check(fmt.Sprintf("%s shards=%d c=%v seeds=%v k=%d", name, shards, c, weights, k), got, err, heapScan(x, k, nil))
					}
				}
			}
		}
	}
	t.Logf("%d (query, k) cases matched the heap scan bit for bit", cases)
}
