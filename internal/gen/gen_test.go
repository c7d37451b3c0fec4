package gen

import (
	"sort"
	"testing"
)

func TestErdosRenyiShape(t *testing.T) {
	g := ErdosRenyi(100, 400, 1)
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() < 300 || g.M() > 400 {
		t.Errorf("m = %d, want close to 400 (duplicates may merge)", g.M())
	}
	for u := 0; u < g.N(); u++ {
		g.OutNeighbors(u, func(to int, _ float64) {
			if to == u {
				t.Errorf("self loop at %d", u)
			}
		})
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 120, 42)
	b := ErdosRenyi(50, 120, 42)
	if a.M() != b.M() {
		t.Fatalf("same seed produced different edge counts %d vs %d", a.M(), b.M())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	c := ErdosRenyi(50, 120, 43)
	diff := c.M() != a.M()
	if !diff {
		ce := c.Edges()
		for i := range ae {
			if ae[i] != ce[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical graphs")
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	g := BarabasiAlbert(500, 3, 2)
	if g.N() != 500 {
		t.Fatalf("n = %d", g.N())
	}
	degs := make([]int, g.N())
	for u := range degs {
		degs[u] = g.OutDegree(u)
		if degs[u] < 3 {
			t.Errorf("node %d has degree %d < k", u, degs[u])
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// Heavy tail: the max degree should far exceed the median.
	if degs[0] < 4*degs[len(degs)/2] {
		t.Errorf("degree distribution not heavy-tailed: max=%d median=%d", degs[0], degs[len(degs)/2])
	}
}

// TestBarabasiAlbertDeterministic pins the same graph to the same seed:
// the attachment draws depend on the order earlier edges were added.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	want := BarabasiAlbert(300, 3, 7).Edges()
	for i := 0; i < 5; i++ {
		got := BarabasiAlbert(300, 3, 7).Edges()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d edges, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: edge %d is %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= k")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}

func TestDirectedScaleFree(t *testing.T) {
	g := DirectedScaleFree(400, 4, 0.2, 0.2, 3)
	if g.N() != 400 {
		t.Fatalf("n = %d", g.N())
	}
	maxIn := 0
	for u := 0; u < g.N(); u++ {
		if d := g.InDegree(u); d > maxIn {
			maxIn = d
		}
	}
	if maxIn < 20 {
		t.Errorf("copy model should concentrate in-degree, max in-degree = %d", maxIn)
	}
}

func TestPlantedPartitionCommunityDensity(t *testing.T) {
	n, k := 200, 4
	g := PlantedPartition(n, k, 0.2, 0.005, 4)
	community := func(u int) int { return u * k / n }
	within, cross := 0, 0
	for _, e := range g.Edges() {
		if community(e.From) == community(e.To) {
			within++
		} else {
			cross++
		}
	}
	if within <= 5*cross {
		t.Errorf("planted partition not community-dominant: within=%d cross=%d", within, cross)
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) == 0 {
			t.Errorf("node %d isolated", u)
		}
	}
}

func TestCommunityOverlayAllNodesHaveOutEdges(t *testing.T) {
	g := CommunityOverlay(300, 5, 10, 0.6, 6)
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) == 0 {
			t.Errorf("node %d has no out-edges", u)
		}
	}
}
