package shard

// Tests for the pooled single-query fast path: per-shard sparse solves
// must be bit-identical to the dense reference across shard counts, the
// pooled state must come back clean no matter what ran before, and the
// steady-state query path must allocate only its result set.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/rwr"
	"kdash/internal/topk"
)

// TestShardSparseSolveMatchesDense pins the split solve — SolveLower
// then one UpperDot per row — bit-identical to core.Index.Solve on every
// row of every shard of sharded indexes across shard counts, including
// 1-shard (no ghost sink) and shards with sinks, over restart-style and
// residual-style right-hand sides. One workspace per shard runs every
// trial.
func TestShardSparseSolveMatchesDense(t *testing.T) {
	g := gen.PlantedPartition(240, 4, 0.2, 0.03, 3)
	for _, shards := range []int{1, 3, 6} {
		sx := buildSharded(t, g, shards, rwr.DefaultRestart)
		rng := rand.New(rand.NewSource(int64(shards)))
		for si, p := range sx.parts {
			n := sx.PartLen(si)
			w := p.ix.NewWorkspace()
			for trial := 0; trial < 4; trial++ {
				r := make([]float64, n)
				if trial%2 == 0 {
					r[rng.Intn(n)] = sx.c
				} else {
					for i := 0; i < 5; i++ {
						r[rng.Intn(n)] += rng.Float64()
					}
				}
				var idx []int
				var val []float64
				for i, v := range r {
					if v != 0 {
						idx = append(idx, i)
						val = append(val, v)
					}
				}
				if err := p.ix.SolveLower(idx, val, w); err != nil {
					t.Fatal(err)
				}
				want, err := p.ix.Solve(r)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if got := p.ix.UpperDot(i, w); got != want[i] {
						t.Fatalf("shards=%d si=%d trial=%d row %d: split %v != dense %v", shards, si, trial, i, got, want[i])
					}
				}
				w.Reset()
			}
		}
	}
}

// TestPooledStateReuseIsClean runs every query shape in interleaved
// orders and asserts answers are bit-identical to a first pass: any
// entry, mark or support list surviving a putPushState shows up as a
// wrong answer here.
func TestPooledStateReuseIsClean(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.2, 0.03, 11)
	sx := buildSharded(t, g, 4, rwr.DefaultRestart)
	const k = 8
	first := make(map[int][]topk.Result)
	for q := 0; q < 24; q++ {
		rs, _, err := sx.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		first[q] = rs
	}
	// Dirty the pooled state with the other query shapes, then re-ask in
	// reverse order.
	if _, err := sx.ProximityVector(13); err != nil {
		t.Fatal(err)
	}
	if _, err := sx.Proximity(3, 190); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sx.TopKPersonalized(map[int]float64{1: 1, 150: 2}, k); err != nil {
		t.Fatal(err)
	}
	for q := 23; q >= 0; q-- {
		rs, _, err := sx.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(first[q]) {
			t.Fatalf("q=%d: %d results on reuse, %d first", q, len(rs), len(first[q]))
		}
		for i := range rs {
			if rs[i] != first[q][i] {
				t.Fatalf("q=%d rank %d: %+v on reuse, %+v first", q, i, rs[i], first[q][i])
			}
		}
	}
}

// TestConcurrentQueriesArePoolSafe answers a fixed query set from many
// goroutines and asserts bit-identical agreement with the sequential
// answers — the pool must hand every request a private, clean state.
// Run under -race this is the load-bearing check for the shared pool.
func TestConcurrentQueriesArePoolSafe(t *testing.T) {
	g := gen.PlantedPartition(180, 3, 0.2, 0.03, 9)
	sx := buildSharded(t, g, 4, rwr.DefaultRestart)
	const k = 6
	want := make([][]topk.Result, 30)
	for q := range want {
		rs, _, err := sx.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = rs
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				q := (w*7 + rep) % len(want)
				rs, _, err := sx.TopK(q, k)
				if err != nil {
					errs <- err
					return
				}
				for i := range rs {
					if rs[i] != want[q][i] {
						errs <- fmt.Errorf("q=%d rank %d: concurrent %+v != sequential %+v", q, i, rs[i], want[q][i])
						return
					}
				}
				if _, err := sx.Proximity(q, (q*13+5)%sx.N()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTopKSteadyStateAllocs is the allocation regression for the pooled
// single-query path: at steady state a TopK allocates its O(k) result
// set (the heap and the results slice) and nothing sized by the graph
// or held by the push — the seeds are copied into the pooled state, so
// the caller's one-element slices stay on the stack — at every shard
// count.
func TestTopKSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; counts are asserted in the regular build")
	}
	g := gen.PlantedPartition(400, 4, 0.2, 0.02, 5)
	for _, shards := range []int{4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sx := buildSharded(t, g, shards, rwr.DefaultRestart)
			// Warm the pool and every lazily built structure (packed cut
			// rows, per-shard vectors, L^{-1} workspaces).
			for q := 0; q < 8; q++ {
				if _, _, err := sx.TopK(q, 10); err != nil {
					t.Fatal(err)
				}
			}
			q := 0
			avg := testing.AllocsPerRun(300, func() {
				if _, _, err := sx.TopK(q%sx.N(), 10); err != nil {
					t.Fatal(err)
				}
				q++
			})
			t.Logf("%.2f allocs/query", avg)
			if avg > 2 {
				t.Errorf("steady-state TopK allocates %.2f objects/query, want the heap and the results slice only (<= 2)", avg)
			}
		})
	}
}

// upperInverseEntries counts ix's U^{-1} entries through the split
// solve: the L^{-1} pass of e_j appends exactly column j's stored rows
// to the workspace support, so the columns sum to nnz(L^{-1}), and the
// rest of NNZInverse is U^{-1}'s.
func upperInverseEntries(t *testing.T, ix *core.Index) int {
	t.Helper()
	w := ix.NewWorkspace()
	lower := 0
	for j := 0; j < ix.N(); j++ {
		if err := ix.SolveLower([]int{j}, []float64{1}, w); err != nil {
			t.Fatal(err)
		}
		lower += len(w.Sup)
		w.Reset()
	}
	return ix.Stats().NNZInverse - lower
}

// TestProximityVectorKeepsNoFactorCopy pins that a full proximity
// vector reads the stored factors in place: after TopK has warmed the
// pooled state, one ProximityVector allocates fewer bytes than 12 per
// U^{-1} entry of the shards its push solves — less than one copy of
// those factors' int32 ids and float64 values — on a graph whose U^{-1}
// holds far more entries than it has nodes.
func TestProximityVectorKeepsNoFactorCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bytes are asserted in the regular build")
	}
	g := gen.PlantedPartition(1200, 4, 0.05, 0.002, 7)
	sx := buildSharded(t, g, 4, rwr.DefaultRestart)
	const q = 5
	for u := 0; u < 8; u++ {
		if _, _, err := sx.TopK((q+u)%sx.N(), 10); err != nil {
			t.Fatal(err)
		}
	}
	st := sx.getPushState()
	st.nodes, st.mass = []int{q}, []float64{sx.c}
	if _, err := st.run(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	for si, p := range sx.parts {
		if st.solves[si].recorded() {
			entries += upperInverseEntries(t, p.ix)
		}
	}
	sx.putPushState(st)
	if entries < 10*sx.N() {
		t.Fatalf("solved shards hold %d U^-1 entries for %d nodes, want a graph with far more", entries, sx.N())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sx.ProximityVector(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("ProximityVector(%d) allocated %d bytes; solved shards hold %d U^-1 entries (%d nodes)", q, got, entries, sx.N())
	if got >= uint64(12*entries) {
		t.Errorf("ProximityVector allocated %d bytes, want < %d: 12 per U^-1 entry of the solved shards", got, 12*entries)
	}
}
