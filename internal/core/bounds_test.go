package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdash/internal/graph"
	"kdash/internal/lu"
	"kdash/internal/reorder"
	"kdash/internal/sparse"
)

// TestDeltaChainRebuildsFromParentAdjacency chains random deltas over
// random block graphs and rebuilds each epoch's block from the last,
// as the sharded update path does, with the parent's A re-formed from
// the parent's graph (Index.Adjacency) since no block keeps it. At every
// epoch the re-formed parent A equals, bit for bit, the A a fresh build
// of the parent graph formed — ColumnNormalized().PermuteSym of its
// permutation, the two-pass form PermutedColumnNormalized is pinned to
// below — the columns a rebuild marks changed (changedColumns, which
// reads the parent graph without re-forming A) are those a compare with
// it marks, and the rebuilt block's factors equal a fresh build's.
func TestDeltaChainRebuildsFromParentAdjacency(t *testing.T) {
	opt := BuildOptions{Reorder: reorder.Hybrid, Seed: 3, Workers: 1}
	formed := func(g *graph.Graph, ix *Index) *sparse.CSC {
		perm := make([]int, ix.n)
		for u, p := range ix.perm {
			perm[u] = int(p)
		}
		return g.ColumnNormalized().PermuteSym(perm)
	}
	reused := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if err := b.AddEdge(rng.Intn(n), rng.Intn(n), 0.1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		var prev, prevFresh *Index
		var prevG *graph.Graph
		for epoch := 0; epoch < 6; epoch++ {
			label := fmt.Sprintf("seed %d epoch %d", seed, epoch)
			blk := reorder.Block{Owned: g.N()}
			ix, _, err := BuildBlock(g, opt, blk, prev, prevG)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := BuildBlock(g, opt, blk, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				if err := sameCSC(prev.Adjacency(prevG), formed(prevG, prevFresh)); err != nil {
					t.Fatalf("%s: re-formed parent A: %v", label, err)
				}
				if a := ix.Adjacency(g); prev.n == g.N() && !slices.Equal(prev.changedColumns(a, prevG), a.ChangedColumns(prev.Adjacency(prevG))) {
					t.Fatalf("%s: the changed columns differ from a compare with the re-formed parent A", label)
				}
			}
			if !slices.Equal(ix.perm, fresh.perm) || sameCompact(ix.inv.Linv, fresh.inv.Linv) != nil || sameCompact(ix.inv.Uinv, fresh.inv.Uinv) != nil {
				t.Fatalf("%s: the rebuilt block differs from a fresh build", label)
			}
			reused += ix.stats.ColumnsReused
			prev, prevFresh, prevG = ix, fresh, g
			g = applyRandomDelta(t, rng, g)
		}
	}
	if reused == 0 {
		t.Fatal("no rebuild reused a column: the chain never exercised the parent A")
	}
}

// TestDeltaChainKeepsDerivedTablesExact chains random deltas — edge
// additions, removals, weight merges onto existing edges, self loops
// and node insertions — over random graphs, and after every epoch
// checks the three O(delta) or one-pass derivations the update path
// runs against the copies they replaced, bit for bit:
//
//   - the in-rows an Apply successor derives equal a fresh
//     graph.Builder build of the same edge set;
//   - GraphBounds, read straight from the out-rows on visit, equals
//     what ColumnNormalized's copy of A holds at every node;
//   - PermutedColumnNormalized equals ColumnNormalized().PermuteSym.
func TestDeltaChainKeepsDerivedTablesExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if err := b.AddEdge(rng.Intn(n), rng.Intn(n), 0.1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		for epoch := 0; epoch < 6; epoch++ {
			label := fmt.Sprintf("seed %d epoch %d", seed, epoch)
			g = applyRandomDelta(t, rng, g)
			sameInRows(t, label, g)
			sameBounds(t, label, GraphBounds(g, 0.95), g.ColumnNormalized())
			perm := rng.Perm(g.N())
			if err := sameCSC(g.PermutedColumnNormalized(perm), g.ColumnNormalized().PermuteSym(perm)); err != nil {
				t.Fatalf("%s: PermutedColumnNormalized: %v", label, err)
			}
		}
	}
}

// applyRandomDelta applies a delta of a few ops to g: most land on
// existing edges (removals and weight merges) or on one hot source row,
// some on inserted nodes, and every removal names an edge that exists
// at its point of the batch.
func applyRandomDelta(t *testing.T, rng *rand.Rand, g *graph.Graph) *graph.Graph {
	t.Helper()
	d := g.NewDelta()
	for i := rng.Intn(3); i > 0; i-- {
		d.AddNode()
	}
	n2 := d.BaseN() + d.AddedNodes()
	// The batch's live edge set, in a slice so draws are deterministic.
	var live [][2]int
	for _, e := range g.Edges() {
		live = append(live, [2]int{e.From, e.To})
	}
	hot := rng.Intn(n2)
	for i := 1 + rng.Intn(8); i > 0; i-- {
		e := [2]int{rng.Intn(n2), rng.Intn(n2)}
		switch r := rng.Intn(10); {
		case r < 3:
			e[0] = hot
		case r < 6 && len(live) > 0:
			e = live[rng.Intn(len(live))] // merge onto it, or remove it
		}
		at := slices.Index(live, e)
		if at >= 0 && rng.Intn(2) == 0 {
			if err := d.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, at, at+1)
			continue
		}
		if err := d.AddEdge(e[0], e[1], 0.1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if at < 0 {
			live = append(live, e)
		}
	}
	g2, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// sameInRows fails unless g's in-adjacency equals, sources and weight
// bits alike, that of a Builder fed g's edges.
func sameInRows(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	fresh := b.Build()
	type in struct {
		from int
		w    uint64
	}
	row := func(g *graph.Graph, u int) (out []in) {
		g.InNeighbors(u, func(v int, w float64) { out = append(out, in{v, math.Float64bits(w)}) })
		return out
	}
	for u := 0; u < g.N(); u++ {
		if got, want := row(g, u), row(fresh, u); !slices.Equal(got, want) {
			t.Fatalf("%s: in-row %d is %v, a fresh build's is %v", label, u, got, want)
		}
	}
}

// sameBounds fails unless the bounds read, bit for bit, what the
// column-normalised adjacency a holds: Amax its largest entry, and each
// node's Amax(v) and A_vv its column's largest entry and its diagonal.
func sameBounds(t *testing.T, label string, got Bounds, a *sparse.CSC) {
	t.Helper()
	if got.c != 0.95 || math.Float64bits(got.amax) != math.Float64bits(a.Max()) {
		t.Fatalf("%s: GraphBounds c=%v amax=%v, ColumnNormalized's amax=%v", label, got.c, got.amax, a.Max())
	}
	colMax := a.ColMax()
	for v := range colMax {
		avv := 0.0
		if i, ok := slices.BinarySearch(a.RowIdx[a.ColPtr[v]:a.ColPtr[v+1]], int32(v)); ok {
			avv = a.Val[a.ColPtr[v]+i]
		}
		ga, gs := got.row(v)
		if math.Float64bits(ga) != math.Float64bits(colMax[v]) || math.Float64bits(gs) != math.Float64bits(avv) {
			t.Fatalf("%s: node %d reads Amax(v)=%v A_vv=%v on visit, ColumnNormalized holds %v and %v", label, v, ga, gs, colMax[v], avv)
		}
	}
}

// sameCompact reports the first array in which two encoded inverse
// factors differ, values compared by their bits.
func sameCompact(got, want *lu.Compact) error {
	switch {
	case got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Gap, want.Gap):
		return fmt.Errorf("pattern differs")
	case !slices.Equal(got.EscPtr, want.EscPtr) || !slices.Equal(got.Esc, want.Esc):
		return fmt.Errorf("escapes differ")
	}
	for i := range got.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			return fmt.Errorf("entry %d is %v, want %v", i, got.Val[i], want.Val[i])
		}
	}
	return nil
}

func sameCSC(got, want *sparse.CSC) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowIdx, want.RowIdx) {
		return fmt.Errorf("pattern differs")
	}
	for i := range got.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			return fmt.Errorf("entry %d is %v, want %v", i, got.Val[i], want.Val[i])
		}
	}
	return nil
}
