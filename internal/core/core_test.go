package core

import (
	"math"
	"math/rand"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
)

// blockIndex builds g as one block that owns every node: the index a
// one-shard ShardedIndex holds.
func blockIndex(tb testing.TB, g *graph.Graph, opt BuildOptions) *Index {
	tb.Helper()
	ix, _, err := BuildBlock(g, opt, reorder.Block{Owned: g.N()}, nil, nil)
	if err != nil {
		tb.Fatalf("BuildBlock(%v): %v", opt.Reorder, err)
	}
	return ix
}

// plantedIndex builds a Hybrid-ordered index over an n-node planted
// partition graph.
func plantedIndex(t *testing.T, seed int64, n int) *Index {
	t.Helper()
	return blockIndex(t, gen.PlantedPartition(n, 4, 0.2, 0.02, seed), BuildOptions{Reorder: reorder.Hybrid, Seed: seed})
}

// TestLemma1EstimateUpperBoundsProximity replays a breadth-first visit
// from q over g and checks that every exact proximity is below the
// estimate Definition 1 gives it at its visit, computed directly
// (non-incrementally) from the bounds GraphBounds reads, with every
// earlier node selected — the unpruned search.
func TestLemma1EstimateUpperBoundsProximity(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 5)
	const q, c = 7, 0.95
	pv, _, err := rwr.Iterative(g.ColumnNormalized(), q, c, 1e-14, 100000)
	if err != nil {
		t.Fatal(err)
	}
	b := GraphBounds(g, c)
	ptr, to := g.OutCSR()
	ws := NewTreeWS(g.N())
	ws.Start([]int{q})
	for end := 1; ; {
		next := ws.NextLayer(ptr, to, end)
		if next == end {
			break
		}
		end = next
	}
	var sel []int // selected nodes in visit order
	for _, u := range ws.Queue() {
		if u != q {
			layU, _ := ws.Reached(u)
			var sum1, sum2, sumSel float64
			for _, v := range sel {
				layV, _ := ws.Reached(v)
				amaxV, _ := b.row(v)
				sumSel += pv[v]
				switch layV {
				case layU - 1:
					sum1 += pv[v] * amaxV
				case layU:
					sum2 += pv[v] * amaxV
				}
			}
			_, selfU := b.row(u)
			est := b.cPrimeOf(selfU) * (sum1 + sum2 + max(1-sumSel, 0)*b.amax)
			if est < pv[u]-1e-9 {
				t.Fatalf("Lemma 1 violated at node %d: estimate %v < proximity %v", u, est, pv[u])
			}
		}
		sel = append(sel, u)
	}
	if len(sel) < 50 {
		t.Fatalf("the replay visited %d nodes; want most of the graph", len(sel))
	}
}

// TestGhostRowNotKept: on a block index whose last node is a ghost
// sink, which Hybrid orders last, L^{-1} keeps no row for the sink (a
// solve has no value to give it, and the worker surface refuses the
// row), while every owned node's split solve, the sink as query
// included, is bit for bit Solve's row.
func TestGhostRowNotKept(t *testing.T) {
	const n = 40
	sink := n - 1
	rng := rand.New(rand.NewSource(4))
	b := graph.NewBuilder(n)
	cut := make([]bool, sink)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(sink), rng.Intn(n)
		if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		cut[u] = cut[u] || v == sink
	}
	ix, _, err := BuildBlock(b.Build(), BuildOptions{Reorder: reorder.Hybrid, Seed: 1, Workers: 1}, reorder.Block{Owned: sink, Cut: cut}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.inv.Linv.Rows != sink || int(ix.perm[sink]) != sink {
		t.Fatalf("L^-1 keeps %d rows, sink at row %d; want the sink's row %d dropped", ix.inv.Linv.Rows, ix.perm[sink], sink)
	}
	w := ix.NewWorkspace()
	for _, q := range []int{0, 17, sink} {
		e := make([]float64, n)
		e[q] = 1
		y, err := ix.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.SolveLower([]int{q}, []float64{1}, w); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < sink; u++ {
			if got := ix.UpperDot(u, w); math.Float64bits(got) != math.Float64bits(y[u]) {
				t.Fatalf("q=%d u=%d: split solve %v, Solve's row %v", q, u, got, y[u])
			}
		}
		w.Reset()
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	g := gen.PlantedPartition(100, 3, 0.2, 0.01, 13)
	st := blockIndex(t, g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1}).Stats()
	if st.NNZInverse <= 0 || st.Edges != g.M() || st.InverseRatio <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.TotalTime <= 0 {
		t.Error("total time not recorded")
	}
	if st.Method != reorder.Hybrid {
		t.Errorf("method = %v", st.Method)
	}
}

func TestHybridBeatsRandomOnNNZ(t *testing.T) {
	// The core claim behind Figure 5: hybrid reordering yields (much)
	// sparser inverse factors than random ordering on clustered graphs.
	g := gen.PlantedPartition(220, 6, 0.2, 0.004, 14)
	hy := blockIndex(t, g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	rd := blockIndex(t, g, BuildOptions{Reorder: reorder.Random, Seed: 1})
	if hy.Stats().NNZInverse >= rd.Stats().NNZInverse {
		t.Errorf("hybrid nnz %d should be below random nnz %d",
			hy.Stats().NNZInverse, rd.Stats().NNZInverse)
	}
}
