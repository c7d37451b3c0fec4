package testutil

import (
	"math/rand"
	"testing"
)

func TestShapesDeterministicAndNonEmpty(t *testing.T) {
	a, b := Shapes(7), Shapes(7)
	if len(a) == 0 {
		t.Fatal("no shapes")
	}
	for name, g := range a {
		if g.N() == 0 || g.M() == 0 {
			t.Errorf("%s: empty graph (n=%d m=%d)", name, g.N(), g.M())
		}
		g2 := b[name]
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Errorf("%s: not deterministic (n %d vs %d, m %d vs %d)", name, g.N(), g2.N(), g.M(), g2.M())
		}
	}
}

func TestShapeProperties(t *testing.T) {
	// Self-loop-heavy really has self loops.
	loops := 0
	for _, e := range SelfLoopHeavy(60, 3).Edges() {
		if e.From == e.To {
			loops++
		}
	}
	if loops < 10 {
		t.Errorf("SelfLoopHeavy: only %d self loops", loops)
	}
	// Disconnected components never reach each other.
	g := Disconnected(90, 3, 5)
	for _, e := range g.Edges() {
		if e.From/30 != e.To/30 {
			t.Fatalf("edge %d->%d crosses components", e.From, e.To)
		}
	}
	// Grid has the expected node count and symmetric edges.
	gr := Grid(4, 5)
	if gr.N() != 20 {
		t.Fatalf("Grid(4,5): n=%d", gr.N())
	}
	for u := 0; u < gr.N(); u++ {
		if gr.OutDegree(u) != gr.InDegree(u) {
			t.Fatalf("grid node %d asymmetric: out=%d in=%d", u, gr.OutDegree(u), gr.InDegree(u))
		}
	}
}

func TestRandomDeltaAlwaysApplies(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng)
		for round := 0; round < 3; round++ {
			d := RandomDelta(rng, g, 6)
			g2, err := g.Apply(d)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if g2.N() != g.N()+d.AddedNodes() {
				t.Fatalf("seed %d: n=%d want %d", seed, g2.N(), g.N()+d.AddedNodes())
			}
			g = g2
		}
	}
}
