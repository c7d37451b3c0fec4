package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/louvain"
)

func isPermutation(perm []int) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func TestAllMethodsProducePermutations(t *testing.T) {
	g := gen.PlantedPartition(150, 3, 0.2, 0.01, 1)
	for _, m := range append(Methods, Natural) {
		perm := Compute(g, m, 42)
		if len(perm) != g.N() {
			t.Errorf("%v: length %d", m, len(perm))
		}
		if !isPermutation(perm) {
			t.Errorf("%v: not a permutation", m)
		}
	}
}

func TestDegreeOrderAscending(t *testing.T) {
	// Star graph: center has max degree, must come last.
	b := graph.NewBuilder(6)
	for i := 1; i < 6; i++ {
		if err := b.AddUndirected(0, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	perm := Compute(g, Degree, 0)
	if perm[0] != 5 {
		t.Errorf("hub should be placed last, perm[0] = %d", perm[0])
	}
	// Leaves keep relative order (stable sort, equal degrees).
	for i := 1; i < 6; i++ {
		if perm[i] != i-1 {
			t.Errorf("leaf %d placed at %d, want %d", i, perm[i], i-1)
		}
	}
}

// TestInvertRoundTrip checks positionsToPerm, which inverts any
// permutation: inv[perm[old]] = old.
func TestInvertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		perm := rng.Perm(n)
		inv := positionsToPerm(perm)
		for old, new := range perm {
			if inv[new] != old {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClusterKeepsCommunitiesContiguous(t *testing.T) {
	// Two cliques with one bridge: non-border nodes of each clique occupy
	// contiguous new positions before the border partition.
	b := graph.NewBuilder(10)
	addClique := func(nodes []int) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if err := b.AddUndirected(nodes[i], nodes[j], 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	addClique([]int{0, 1, 2, 3, 4})
	addClique([]int{5, 6, 7, 8, 9})
	if err := b.AddUndirected(4, 5, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	perm := Compute(g, Cluster, 1)
	// Border nodes 4 and 5 must take the two highest positions.
	if perm[4] < 8 || perm[5] < 8 {
		t.Errorf("border nodes should be last: perm[4]=%d perm[5]=%d", perm[4], perm[5])
	}
	// Remaining clique-1 nodes contiguous.
	pos := []int{perm[0], perm[1], perm[2], perm[3]}
	min, max := pos[0], pos[0]
	for _, p := range pos {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max-min != 3 {
		t.Errorf("clique-1 interior not contiguous: %v", pos)
	}
}

func TestHybridSortsWithinPartitionByDegree(t *testing.T) {
	// One community: a path 0-1-2-3 plus extra edges at node 3. With one
	// partition hybrid should place low-degree nodes first.
	b := graph.NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 0}, {3, 1}} {
		if err := b.AddUndirected(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	perm := Compute(g, Hybrid, 2)
	// Node 3 has the highest degree within its partition.
	for u := 0; u < 5; u++ {
		if u != 3 && PartitionOf(perm, u) > PartitionOf(perm, 3) {
			// With a single community all nodes share the partition, so
			// node 3 must come after every lower-degree node within it.
			t.Errorf("node %d placed after higher-degree node 3", u)
		}
	}
	_ = perm
}

// PartitionOf is a trivial helper for the test above: with one partition
// the new index is the within-partition position.
func PartitionOf(perm []int, u int) int { return perm[u] }

func TestRandomOrderDeterministicPerSeed(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 3)
	a := Compute(g, Random, 11)
	b := Compute(g, Random, 11)
	c := Compute(g, Random, 12)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed gave different random orders")
	}
	if !diff {
		t.Error("different seeds gave identical random orders")
	}
}

func TestNaturalIsIdentity(t *testing.T) {
	g := gen.ErdosRenyi(20, 50, 4)
	perm := Compute(g, Natural, 0)
	for i, p := range perm {
		if p != i {
			t.Fatalf("natural order not identity at %d", i)
		}
	}
}

// TestPartitionSizesSum checks that the border partition Algorithm 2
// sorts by labels every node with one of its K+1 partitions.
func TestPartitionSizesSum(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.25, 0.01, 5)
	res := louvain.Partition(g, 1)
	sizes := make([]int, res.K+1)
	for _, p := range borderPartition(g, g.N(), res) {
		sizes[p]++
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.N() {
		t.Errorf("partition sizes sum to %d, want %d", total, g.N())
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{Degree: "Degree", Cluster: "Cluster", Hybrid: "Hybrid", Random: "Random", Natural: "Natural"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
