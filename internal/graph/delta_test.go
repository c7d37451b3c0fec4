package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustEdges(t *testing.T, b *Builder, edges [][3]float64) {
	t.Helper()
	for _, e := range edges {
		if err := b.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
}

// edgeMap flattens a graph to a comparable form.
func edgeMap(g *Graph) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for _, e := range g.Edges() {
		out[[2]int{e.From, e.To}] = e.Weight
	}
	return out
}

func TestDeltaAddRemoveNode(t *testing.T) {
	b := NewBuilder(3)
	mustEdges(t, b, [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 0, 1}})
	g := b.Build()

	d := g.NewDelta()
	if id := d.AddNode(); id != 3 {
		t.Fatalf("first inserted node id = %d, want 3", id)
	}
	if id := d.AddNode(); id != 4 {
		t.Fatalf("second inserted node id = %d, want 4", id)
	}
	if err := d.AddEdge(3, 4, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1, 1); err != nil { // merges onto existing
		t.Fatal(err)
	}
	if err := d.RemoveEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	g2, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// Base graph untouched.
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("base graph mutated: n=%d m=%d", g.N(), g.M())
	}
	want := map[[2]int]float64{{0, 1}: 2, {1, 2}: 2, {3, 4}: 0.5}
	got := edgeMap(g2)
	if g2.N() != 5 || len(got) != len(want) {
		t.Fatalf("updated graph n=%d edges=%v", g2.N(), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("edge %v weight %v, want %v", k, got[k], w)
		}
	}
}

func TestDeltaSequentialSemantics(t *testing.T) {
	b := NewBuilder(2)
	mustEdges(t, b, [][3]float64{{0, 1, 3}})
	g := b.Build()

	// Remove-then-add replaces the weight.
	d := g.NewDelta()
	if err := d.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	g2, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeMap(g2)[[2]int{0, 1}]; got != 7 {
		t.Fatalf("replace: weight %v, want 7", got)
	}

	// Add-then-remove nets out.
	d = g.NewDelta()
	if err := d.AddEdge(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	g3, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() != 1 {
		t.Fatalf("add-then-remove left %d edges, want 1", g3.M())
	}
}

func TestDeltaValidation(t *testing.T) {
	b := NewBuilder(2)
	mustEdges(t, b, [][3]float64{{0, 1, 1}})
	g := b.Build()

	d := g.NewDelta()
	if err := d.AddEdge(0, 2, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := d.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative source accepted")
	}
	if err := d.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := d.RemoveEdge(0, 5); err == nil {
		t.Error("out-of-range removal accepted")
	}

	// Removing a nonexistent edge fails the whole batch, typed.
	d = g.NewDelta()
	if err := d.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Apply(d); !errors.Is(err, ErrEdgeNotFound) {
		t.Errorf("missing-edge removal: err = %v, want ErrEdgeNotFound", err)
	}

	// A delta built for a different node count is rejected.
	other := NewBuilder(5).Build()
	if _, err := other.Apply(g.NewDelta()); err == nil {
		t.Error("delta with mismatched base accepted")
	}
}

func TestGraphConvenienceOps(t *testing.T) {
	b := NewBuilder(2)
	mustEdges(t, b, [][3]float64{{0, 1, 1}})
	g := b.Build()

	g2, err := g.AddEdge(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 2 || g.M() != 1 {
		t.Fatalf("AddEdge: new m=%d old m=%d", g2.M(), g.M())
	}
	g3, err := g2.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() != 1 {
		t.Fatalf("RemoveEdge: m=%d", g3.M())
	}
	g4, id := g3.AddNode()
	if id != 2 || g4.N() != 3 || g4.M() != g3.M() {
		t.Fatalf("AddNode: id=%d n=%d m=%d", id, g4.N(), g4.M())
	}
}

// TestApplyMatchesRebuild is the structural equivalence property: for
// random graphs and random batches, Apply produces exactly the graph a
// Builder fed the final edge set would.
func TestApplyMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			if err := b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		d := g.NewDelta()
		for i := 0; i < rng.Intn(4); i++ {
			d.AddNode()
		}
		edges := g.Edges()
		for i := 0; i < 1+rng.Intn(6); i++ {
			if rng.Intn(3) == 0 && len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				_ = d.RemoveEdge(e.From, e.To) // may duplicate: skip failures below
			} else {
				if err := d.AddEdge(rng.Intn(d.BaseN()+d.AddedNodes()), rng.Intn(d.BaseN()+d.AddedNodes()), 0.1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		g2, err := g.Apply(d)
		if err != nil {
			if errors.Is(err, ErrEdgeNotFound) {
				continue // duplicate removal drawn; fine
			}
			t.Fatal(err)
		}
		// Rebuild from the flattened edge list and compare shape-for-shape.
		rb := NewBuilder(g2.N())
		for _, e := range g2.Edges() {
			if err := rb.AddEdge(e.From, e.To, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		g3 := rb.Build()
		em2, em3 := edgeMap(g2), edgeMap(g3)
		if len(em2) != len(em3) {
			t.Fatalf("seed %d: %d vs %d edges", seed, len(em2), len(em3))
		}
		for k, w := range em2 {
			if em3[k] != w {
				t.Fatalf("seed %d: edge %v %v vs %v", seed, k, w, em3[k])
			}
		}
	}
}

// oracleApply is the map-and-rebuild Apply this package shipped before
// the row-splicing one: replay the ops over a map of every edge, then
// hand the surviving set to a Builder. Kept verbatim as the reference
// for TestApplyEqualsBuilderOracle.
func oracleApply(g *Graph, d *Delta) (*Graph, error) {
	type key struct{ from, to int }
	w := make(map[key]float64, g.M()+len(d.ops))
	for u := 0; u < g.n; u++ {
		for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
			w[key{u, int(g.outTo[i])}] = g.outW[i]
		}
	}
	for i, op := range d.ops {
		k := key{op.from, op.to}
		switch op.kind {
		case opAddEdge:
			w[k] += op.w
		case opRemoveEdge:
			if _, ok := w[k]; !ok {
				return nil, fmt.Errorf("graph: delta op %d removes edge (%d,%d): %w", i, op.from, op.to, ErrEdgeNotFound)
			}
			delete(w, k)
		}
	}
	b := NewBuilder(g.n + d.addNodes)
	for k, weight := range w {
		if err := b.AddEdge(k.from, k.to, weight); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// sameArrays fails unless the two graphs agree array for array — node
// count, out-CSR and the derived in-CSR, weights compared by bits.
func sameArrays(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	bits := func(ws []float64) []uint64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = math.Float64bits(w)
		}
		return out
	}
	gin, win := got.inRows(), want.inRows()
	if got.n != want.n ||
		!slices.Equal(got.outPtr, want.outPtr) || !slices.Equal(got.outTo, want.outTo) || !slices.Equal(bits(got.outW), bits(want.outW)) ||
		!slices.Equal(gin.RowPtr, win.RowPtr) || !slices.Equal(gin.ColIdx, win.ColIdx) || !slices.Equal(bits(gin.Val), bits(win.Val)) {
		t.Fatalf("%s: Apply and the Builder oracle disagree:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestApplyEqualsBuilderOracle drives Apply and the map-and-rebuild
// oracle with deltas built to hit every splice case — node insertions,
// repeated adds to one edge (weight accumulation order), add-then-remove,
// remove-then-add, several ops on one row, ops on inserted nodes' rows,
// and removals that fail — and requires array-for-array equal graphs, or
// the same failing op in the error.
func TestApplyEqualsBuilderOracle(t *testing.T) {
	failures := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		b := NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			mustEdge(t, b, rng.Intn(n), rng.Intn(n), 0.1+rng.Float64())
		}
		g := b.Build()
		before := g.Edges()

		d := g.NewDelta()
		for i := rng.Intn(4); i > 0; i-- {
			d.AddNode()
		}
		n2 := d.BaseN() + d.AddedNodes()
		// A few hot rows and hot edges, so ops collide.
		hot := [][2]int{{rng.Intn(n2), rng.Intn(n2)}, {rng.Intn(n2), rng.Intn(n2)}}
		hot = append(hot, [2]int{hot[0][0], rng.Intn(n2)})
		for i := rng.Intn(12); i > 0; i-- {
			// Most ops land on a hot edge or an edge of the base graph; a
			// removal never draws a uniform pair, which would almost
			// always fail.
			from, to := rng.Intn(n2), rng.Intn(n2)
			remove := rng.Intn(5) >= 3
			if r := rng.Intn(10); r < 4 || (remove && len(before) == 0) {
				e := hot[rng.Intn(len(hot))]
				from, to = e[0], e[1]
			} else if (r < 7 || remove) && len(before) > 0 {
				e := before[rng.Intn(len(before))]
				from, to = e.From, e.To
			}
			var err error
			if remove {
				err = d.RemoveEdge(from, to)
			} else {
				err = d.AddEdge(from, to, 0.1+rng.Float64())
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		want, wantErr := oracleApply(g, d)
		got, err := g.Apply(d)
		label := fmt.Sprintf("seed %d", seed)
		if wantErr != nil {
			failures++
			if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrEdgeNotFound) {
				t.Fatalf("%s: error %v, oracle %v", label, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v (oracle applied it)", label, err)
		}
		sameArrays(t, label, got, want)
		if after := g.Edges(); !slices.Equal(after, before) {
			t.Fatalf("%s: Apply modified its receiver", label)
		}
	}
	if failures < 20 || failures > 280 {
		t.Fatalf("%d of 300 deltas failed: the generator no longer covers both outcomes", failures)
	}
}
