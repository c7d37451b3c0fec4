package shard

// In-package tests for the distributed-serving seam: a RemoteSolver
// backed directly by a second copy of the index (its RunShardRows
// worker surface — no RPC, no processes) must leave every answer and
// its QueryStats bit-identical to local solving, because the push runs
// the same commits in the same order on the same 64-bit row dots, and
// the rank reads the same sums. The full loopback-TCP and multi-process
// versions of this check live in internal/placement and
// internal/distributed.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/testutil"
)

// indexSolver adapts a factor-holding index's worker surface to the
// RemoteSolver interface, counting the RunRows calls (runs) it serves
// and the pushes they started (calls): a call carrying the push's whole
// budget starts one, the query's own or a rank fallback's re-run. served
// lists each simulated worker's shards; by default one worker serves
// them all.
type indexSolver struct {
	sx     *ShardedIndex
	served [][]int
	calls  atomic.Int64
	runs   atomic.Int64
}

func (r *indexSolver) RunRows(si int, q *rpc.RunRowsRequest, rep *rpc.RunRowsReply) error {
	r.runs.Add(1)
	if q.Budget == maxSolves {
		r.calls.Add(1)
	}
	for _, sv := range r.served {
		if slices.Contains(sv, si) {
			q.Served = sv
			return r.sx.RunShardRows(q, rep)
		}
	}
	panic("shard placed on no worker")
}

// remotePair saves g's index and opens it twice from the directory: a
// worker copy with real factors and a factorless coordinator copy whose
// solves route through the worker's RunShardRows.
func remotePair(t *testing.T, g *graph.Graph, opt Options) (local, co *ShardedIndex, rs *indexSolver) {
	t.Helper()
	local, err := Build(g, opt)
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
	co, err = Open(dir, LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	co.SetFactorless()
	all := make([]int, co.Shards())
	for si := range all {
		all[si] = si
	}
	rs = &indexSolver{sx: worker, served: [][]int{all}}
	co.SetRemoteSolver(rs)
	return local, co, rs
}

func TestRemoteSolverSeamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	local, co, rs := remotePair(t, testutil.Random(rng), Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 31, StalenessLimit: 8})

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
	gotP, gps, err := co.TopKPersonalized(seeds, 5)
	if err != nil {
		t.Fatalf("remote TopKPersonalized: %v", err)
	}
	wantP, wps, err := local.TopKPersonalized(seeds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotP, wantP) || gps != wps {
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

	gotV, err := co.ProximityVector(q)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := local.ProximityVector(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Fatalf("ProximityVector(%d) diverged through the remote seam", q)
	}
	if rs.runs.Load() == 0 || rs.calls.Load() == 0 {
		t.Fatalf("%d runs and %d row solves went through the remote seam, want both", rs.runs.Load(), rs.calls.Load())
	}
}

// bfsPrefix returns the fewest whole BFS layers from root holding more
// than need nodes — the rank prefix a coordinator fetches for k = need.
func bfsPrefix(g *graph.Graph, root, need int) map[int]bool {
	ptr, to := g.OutCSR()
	in := map[int]bool{root: true}
	layer := []int{root}
	for len(in) <= need && len(layer) > 0 {
		var next []int
		for _, u := range layer {
			for _, id := range to[ptr[u]:ptr[u+1]] {
				if v := int(id); !in[v] {
					in[v] = true
					next = append(next, v)
				}
			}
		}
		layer = next
	}
	return in
}

// TestRemoteRankFallbackBitIdentical drives the rank past the prefix a
// push fetches — k = 64, exclude sets that cover the whole k = 64
// prefix, multi-seed personalized queries — and checks that the
// fallback's re-runs fire and that every answer and its QueryStats stay
// bit-identical to in-process; Proximity and ProximityVector ride the
// same seam.
func TestRemoteRankFallbackBitIdentical(t *testing.T) {
	g := gen.CommunityOverlay(600, 4, 12, 0.8, 5)
	local, co, rs := remotePair(t, g, Options{Shards: 6, Reorder: reorder.Hybrid, Seed: 5})
	rng := rand.New(rand.NewSource(5))
	n := co.N()

	fallbacks := map[string]int64{}
	track := func(kind string, run func()) {
		pushes := rs.calls.Load()
		run()
		fallbacks[kind] += rs.calls.Load() - pushes - 1 // every push after the query's own is a re-run
	}
	for i := 0; i < 12; i++ {
		q := rng.Intn(n)
		track("topk", func() {
			got, gqs, err := co.TopK(q, 64)
			if err != nil {
				t.Fatalf("remote TopK(%d,64): %v", q, err)
			}
			want, wqs, err := local.TopK(q, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gqs, wqs) {
				t.Fatalf("TopK(%d,64) diverged through the remote seam", q)
			}
		})

		opt := core.SearchOptions{K: 64, Exclude: bfsPrefix(g, q, 64)}
		track("exclude", func() {
			got, gss, err := co.Search(q, opt)
			if err != nil {
				t.Fatalf("remote Search(%d) with exclude: %v", q, err)
			}
			want, wss, err := local.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gss != wss {
				t.Fatalf("Search(%d, exclude %d nodes) diverged through the remote seam", q, len(opt.Exclude))
			}
		})

		seeds := map[int]float64{rng.Intn(n): 1, rng.Intn(n): 0.5, rng.Intn(n): 2}
		track("personalized", func() {
			got, gps, err := co.TopKPersonalized(seeds, 64)
			if err != nil {
				t.Fatalf("remote TopKPersonalized: %v", err)
			}
			want, wps, err := local.TopKPersonalized(seeds, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gps != wps {
				t.Fatalf("TopKPersonalized(%v,64) diverged through the remote seam", seeds)
			}
		})

		u := rng.Intn(n)
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
	}
	q := rng.Intn(n)
	gotV, err := co.ProximityVector(q)
	if err != nil {
		t.Fatal(err)
	}
	wantV, err := local.ProximityVector(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Fatalf("ProximityVector(%d) diverged through the remote seam", q)
	}
	for _, kind := range []string{"topk", "exclude", "personalized"} {
		if fallbacks[kind] == 0 {
			t.Errorf("%s: no rank re-ran the push past its prefix, the fallback went unexercised", kind)
		}
	}
	t.Logf("fallback re-runs: %v", fallbacks)
}

// TestRunShardRowsRejectsBadInput: the worker surface answers hostile
// run requests — served shards, masses, tolerance, budget, section
// pointers, residual ids and values, prefix rows (the ghost sink's
// among them) — with errors instead of faulting, and a valid run's
// first step reproduces the dense in-process solve bit for bit.
func TestRunShardRowsRejectsBadInput(t *testing.T) {
	sx, err := Build(testutil.Clustered(60, 3, 5), Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := sx.PartLen(0)
	if !sx.parts[0].sink || n != len(sx.parts[0].nodes)+1 {
		t.Fatalf("shard 0 has no sink row (%d rows, %d owned)", n, len(sx.parts[0].nodes))
	}
	valid := func() *rpc.RunRowsRequest {
		return &rpc.RunRowsRequest{
			Served: []int{0, 1, 2}, Mass: []float64{1, 0, 0}, Tol: 1e-9, Budget: 10,
			ResPtr: []int{0, 2, 2, 2}, ResIdx: []int{0, 4}, ResVal: []float64{0.75, 0.25},
			PrePtr: []int{0, 1, 1, 1}, PreRows: []int{2},
		}
	}
	var rep rpc.RunRowsReply
	for name, edit := range map[string]func(q *rpc.RunRowsRequest){
		"no served shard":          func(q *rpc.RunRowsRequest) { q.Served = nil },
		"served shard -1":          func(q *rpc.RunRowsRequest) { q.Served = []int{-1, 0} },
		"served shard past count":  func(q *rpc.RunRowsRequest) { q.Served = []int{0, 3} },
		"served descending":        func(q *rpc.RunRowsRequest) { q.Served = []int{1, 0} },
		"served repeated":          func(q *rpc.RunRowsRequest) { q.Served = []int{0, 0} },
		"a mass missing":           func(q *rpc.RunRowsRequest) { q.Mass = q.Mass[:2] },
		"NaN mass":                 func(q *rpc.RunRowsRequest) { q.Mass[1] = math.NaN() },
		"negative mass":            func(q *rpc.RunRowsRequest) { q.Mass[2] = -0.5 },
		"infinite tolerance":       func(q *rpc.RunRowsRequest) { q.Tol = math.Inf(1) },
		"negative budget":          func(q *rpc.RunRowsRequest) { q.Budget = -1 },
		"a section missing":        func(q *rpc.RunRowsRequest) { q.ResPtr, q.PrePtr = q.ResPtr[:3], q.PrePtr[:3] },
		"pointer past ids":         func(q *rpc.RunRowsRequest) { q.ResPtr[3] = 3 },
		"ids without values":       func(q *rpc.RunRowsRequest) { q.ResVal = q.ResVal[:1] },
		"residual id past partLen": func(q *rpc.RunRowsRequest) { q.ResIdx[1] = n },
		"residual ids descending":  func(q *rpc.RunRowsRequest) { q.ResIdx[0], q.ResIdx[1] = 4, 0 },
		"zero residual value":      func(q *rpc.RunRowsRequest) { q.ResVal[0] = 0 },
		"NaN residual value":       func(q *rpc.RunRowsRequest) { q.ResVal[1] = math.NaN() },
		"sink prefix row":          func(q *rpc.RunRowsRequest) { q.PreRows[0] = n - 1 },
		"negative prefix row":      func(q *rpc.RunRowsRequest) { q.PreRows[0] = -1 },
		"prefix rows repeated": func(q *rpc.RunRowsRequest) {
			q.PrePtr, q.PreRows = []int{0, 2, 2, 2}, []int{2, 2}
		},
	} {
		q := valid()
		edit(q)
		if err := sx.RunShardRows(q, &rep); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	q := valid()
	if err := sx.RunShardRows(q, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 || rep.Steps[0] != 0 {
		t.Fatalf("a run seeded on shard 0 solved %v", rep.Steps)
	}
	var ss shardSolves
	ss.setRows(sx.parts[0].cutRows, q.PreRows)
	ix, err := sx.parts[0].index()
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, n)
	dense[0], dense[4] = 0.75, 0.25
	want, err := ix.Solve(dense)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Vals[rep.Ptr[0]:rep.Ptr[1]]
	if len(got) != len(ss.rows) {
		t.Fatalf("first step returned %d values for %d rows", len(got), len(ss.rows))
	}
	for i, lv := range ss.rows {
		if math.Float64bits(got[i]) != math.Float64bits(want[lv]) {
			t.Fatalf("row %d: %v != %v", lv, got[i], want[lv])
		}
	}
}

// TestRemoteSeamConcurrentQueries runs remote queries from several
// goroutines at once — the coordinator's pooled states and the worker
// surface's pooled workspaces are shared — and checks each answer against
// the in-process one.
func TestRemoteSeamConcurrentQueries(t *testing.T) {
	g := gen.CommunityOverlay(400, 4, 8, 0.8, 9)
	local, co, _ := remotePair(t, g, Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 9})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				q, k := rng.Intn(co.N()), 1+rng.Intn(64)
				got, gqs, err := co.TopK(q, k)
				if err != nil {
					t.Errorf("remote TopK(%d,%d): %v", q, k, err)
					return
				}
				want, wqs, err := local.TopK(q, k)
				if err != nil {
					t.Errorf("TopK(%d,%d): %v", q, k, err)
					return
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gqs, wqs) {
					t.Errorf("TopK(%d,%d) diverged under concurrency", q, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
