package louvain

import (
	"math"
	"math/rand"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/graph"
)

func TestTwoCliquesSeparated(t *testing.T) {
	// Two 5-cliques joined by a single bridge edge must split into two
	// communities.
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
	res := Partition(b.Build(), 1)
	if res.K != 2 {
		t.Fatalf("K = %d, want 2 (communities: %v)", res.K, res.Community)
	}
	for u := 1; u < 5; u++ {
		if res.Community[u] != res.Community[0] {
			t.Errorf("node %d not with clique 1", u)
		}
	}
	for u := 6; u < 10; u++ {
		if res.Community[u] != res.Community[5] {
			t.Errorf("node %d not with clique 2", u)
		}
	}
	if res.Community[0] == res.Community[5] {
		t.Error("cliques merged")
	}
	if res.Q < 0.3 {
		t.Errorf("modularity %v too low", res.Q)
	}
}

func TestPlantedPartitionRecovered(t *testing.T) {
	n, k := 200, 4
	g := gen.PlantedPartition(n, k, 0.3, 0.005, 2)
	res := Partition(g, 3)
	if res.K < 3 || res.K > 8 {
		t.Errorf("K = %d, want close to the planted 4", res.K)
	}
	if res.Q < 0.4 {
		t.Errorf("modularity %v too low for a strongly clustered graph", res.Q)
	}
	// Most same-block pairs should share a community: sample block 0.
	truth := func(u int) int { return u * k / n }
	agree, total := 0, 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < u+10 && v < n; v++ {
			total++
			if (truth(u) == truth(v)) == (res.Community[u] == res.Community[v]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Errorf("pairwise agreement with planted partition = %v", frac)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.PlantedPartition(120, 3, 0.25, 0.01, 5)
	a := Partition(g, 7)
	b := Partition(g, 7)
	if a.K != b.K {
		t.Fatalf("same seed, different K: %d vs %d", a.K, b.K)
	}
	for u := range a.Community {
		if a.Community[u] != b.Community[u] {
			t.Fatalf("same seed, node %d differs", u)
		}
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty := Partition(graph.NewBuilder(0).Build(), 1)
	if empty.K != 0 {
		t.Errorf("empty graph K = %d", empty.K)
	}
	single := Partition(graph.NewBuilder(1).Build(), 1)
	if single.K != 1 {
		t.Errorf("single-node graph K = %d", single.K)
	}
	edgeless := Partition(graph.NewBuilder(5).Build(), 1)
	if edgeless.K != 5 {
		t.Errorf("edgeless graph K = %d, want 5 singleton communities", edgeless.K)
	}
}

func TestDirectedGraphSymmetrised(t *testing.T) {
	// Directed two-cycle communities still detected via symmetrisation.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	res := Partition(b.Build(), 1)
	if res.Community[0] != res.Community[1] || res.Community[1] != res.Community[2] {
		t.Errorf("first triangle split: %v", res.Community)
	}
	if res.Community[3] != res.Community[4] || res.Community[4] != res.Community[5] {
		t.Errorf("second triangle split: %v", res.Community)
	}
}

func TestModularityBounds(t *testing.T) {
	g := gen.PlantedPartition(100, 2, 0.3, 0.01, 9)
	res := Partition(g, 1)
	if res.Q < -0.5 || res.Q > 1 {
		t.Errorf("modularity %v outside [-0.5, 1]", res.Q)
	}
	// All-in-one partition has lower modularity than the detected one.
	allOne := make([]int, g.N())
	if q1 := symmetrize(g, g.N()).modularity(allOne); q1 >= res.Q {
		t.Errorf("trivial partition Q=%v should be below detected Q=%v", q1, res.Q)
	}
}

func TestSelfLoopsHandled(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUndirected(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUndirected(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	res := Partition(b.Build(), 1)
	if len(res.Community) != 3 {
		t.Fatalf("community slice wrong length: %v", res.Community)
	}
}

// TestWeightedPartitionBitReproducible: on a weighted graph every float
// sum must follow a fixed order, or the bits of Q (and, through the move
// gains, the partition) drift between same-seed runs. The map-based
// implementation failed this on about half its runs.
func TestWeightedPartitionBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	b := graph.NewBuilder(n)
	for i := 0; i < 6*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if err := b.AddEdge(u, v, 0.1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	want := Partition(g, 5)
	for run := 1; run < 50; run++ {
		got := Partition(g, 5)
		if got.K != want.K || math.Float64bits(got.Q) != math.Float64bits(want.Q) {
			t.Fatalf("run %d: K=%d Q=%x, first run K=%d Q=%x", run, got.K, math.Float64bits(got.Q), want.K, math.Float64bits(want.Q))
		}
		for u := range want.Community {
			if got.Community[u] != want.Community[u] {
				t.Fatalf("run %d: node %d in community %d, first run %d", run, u, got.Community[u], want.Community[u])
			}
		}
	}
	if q := symmetrize(g, g.N()).modularity(want.Community); math.Float64bits(q) != math.Float64bits(want.Q) {
		t.Errorf("modularity(partition) = %x, Partition reported %x", math.Float64bits(q), math.Float64bits(want.Q))
	}
}

// TestPartitionMatchesMapOracle: on unit-weight graphs, where the
// oracle's unordered sums are exact, the flat-array implementation must
// reproduce its partition exactly.
func TestPartitionMatchesMapOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"planted-200":     gen.PlantedPartition(200, 4, 0.3, 0.005, 2),
		"planted-600":     gen.PlantedPartition(600, 8, 0.1, 0.002, 4),
		"overlay-2000":    gen.CommunityOverlay(2000, 3, 20, 0.995, 7),
		"overlay-5000":    gen.CommunityOverlay(5000, 3, 64, 0.995, 1),
		"scale-free-1500": gen.DirectedScaleFree(1500, 4, 0.6, 0.3, 3),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			want, got := oraclePartition(g, seed), Partition(g, seed)
			if got.K != want.K {
				t.Fatalf("%s seed %d: K = %d, oracle %d", name, seed, got.K, want.K)
			}
			for u := range want.Community {
				if got.Community[u] != want.Community[u] {
					t.Fatalf("%s seed %d: node %d in community %d, oracle %d", name, seed, u, got.Community[u], want.Community[u])
				}
			}
			if math.Abs(got.Q-want.Q) > 1e-12 {
				t.Errorf("%s seed %d: Q = %v, oracle %v", name, seed, got.Q, want.Q)
			}
		}
	}
}

// oraclePartition is the map-based Louvain this package shipped before
// the flat-array rewrite, kept verbatim as the reference Partition is
// compared against. Its float sums follow Go map iteration order, so it
// is only reproducible where those sums are exact (unit weights).
func oraclePartition(g *graph.Graph, seed int64) *Result {
	n := g.N()
	if n == 0 {
		return &Result{Community: []int{}, K: 0}
	}
	// Symmetrised weighted adjacency lists.
	adj := oracleSymmetrize(g)
	rng := rand.New(rand.NewSource(seed))

	// assignment[u] tracks u's community in the original node space.
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}

	level := adj
	for lv := 0; lv < maxLevels; lv++ {
		com, moved := oracleLocalMove(level, rng)
		com, k := oracleCompact(com)
		// Fold this level's communities into the original assignment.
		for u := 0; u < n; u++ {
			assignment[u] = com[assignment[u]]
		}
		if !moved || k == len(level.weight) {
			break
		}
		level = oracleAggregate(level, com, k)
	}
	com, k := oracleCompact(assignment)
	return &Result{Community: com, K: k, Q: oracleModularity(g, com)}
}

// oracleWeighted is an undirected weighted multigraph in adjacency-list form.
type oracleWeighted struct {
	nbr    [][]int
	w      [][]float64
	weight []float64 // weighted degree per node (self loops count twice)
	m2     float64   // total weight * 2
	self   []float64 // self-loop weight per node
}

func oracleSymmetrize(g *graph.Graph) *oracleWeighted {
	n := g.N()
	wg := &oracleWeighted{
		nbr:    make([][]int, n),
		w:      make([][]float64, n),
		weight: make([]float64, n),
		self:   make([]float64, n),
	}
	// Merge both directions into per-node maps.
	maps := make([]map[int]float64, n)
	for u := 0; u < n; u++ {
		maps[u] = map[int]float64{}
	}
	for u := 0; u < n; u++ {
		g.OutNeighbors(u, func(v int, w float64) {
			if v == u {
				wg.self[u] += w
				return
			}
			maps[u][v] += w
			maps[v][u] += w
		})
	}
	for u := 0; u < n; u++ {
		for v, w := range maps[u] {
			wg.nbr[u] = append(wg.nbr[u], v)
			wg.w[u] = append(wg.w[u], w)
			wg.weight[u] += w
		}
		wg.weight[u] += 2 * wg.self[u]
		wg.m2 += wg.weight[u]
	}
	return wg
}

// oracleLocalMove runs modularity-greedy single-node moves until a full pass
// makes no move. Returns the community assignment and whether any move
// happened at all.
func oracleLocalMove(wg *oracleWeighted, rng *rand.Rand) ([]int, bool) {
	n := len(wg.weight)
	com := make([]int, n)
	tot := make([]float64, n) // total weighted degree per community
	for u := 0; u < n; u++ {
		com[u] = u
		tot[u] = wg.weight[u]
	}
	if wg.m2 == 0 {
		return com, false
	}
	order := rng.Perm(n)
	anyMoved := false
	// neighWeight[c] accumulates edge weight from the current node into
	// community c during one node's evaluation.
	neighWeight := map[int]float64{}
	for pass := 0; pass < 100; pass++ {
		movedThisPass := false
		for _, u := range order {
			cu := com[u]
			// Weights from u to each neighbouring community.
			for k := range neighWeight {
				delete(neighWeight, k)
			}
			for i, v := range wg.nbr[u] {
				neighWeight[com[v]] += wg.w[u][i]
			}
			// Remove u from its community.
			tot[cu] -= wg.weight[u]
			best, bestGain := cu, neighWeight[cu]-tot[cu]*wg.weight[u]/wg.m2
			for c, kin := range neighWeight {
				gain := kin - tot[c]*wg.weight[u]/wg.m2
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
					best, bestGain = c, gain
				}
			}
			tot[best] += wg.weight[u]
			if best != cu {
				com[u] = best
				movedThisPass = true
				anyMoved = true
			}
		}
		if !movedThisPass {
			break
		}
	}
	return com, anyMoved
}

// oracleCompact renumbers community ids to 0..k-1 preserving first-seen order.
func oracleCompact(com []int) ([]int, int) {
	remap := map[int]int{}
	out := make([]int, len(com))
	for i, c := range com {
		id, ok := remap[c]
		if !ok {
			id = len(remap)
			remap[c] = id
		}
		out[i] = id
	}
	return out, len(remap)
}

// oracleAggregate collapses each community into a single super-node.
func oracleAggregate(wg *oracleWeighted, com []int, k int) *oracleWeighted {
	out := &oracleWeighted{
		nbr:    make([][]int, k),
		w:      make([][]float64, k),
		weight: make([]float64, k),
		self:   make([]float64, k),
	}
	maps := make([]map[int]float64, k)
	for i := range maps {
		maps[i] = map[int]float64{}
	}
	for u := range wg.weight {
		cu := com[u]
		out.self[cu] += wg.self[u]
		for i, v := range wg.nbr[u] {
			cv := com[v]
			if cv == cu {
				// Each undirected edge appears twice in adjacency lists;
				// halve to count it once as a self loop.
				out.self[cu] += wg.w[u][i] / 2
			} else {
				maps[cu][cv] += wg.w[u][i]
			}
		}
	}
	for cu := 0; cu < k; cu++ {
		for cv, w := range maps[cu] {
			out.nbr[cu] = append(out.nbr[cu], cv)
			out.w[cu] = append(out.w[cu], w)
			out.weight[cu] += w
		}
		out.weight[cu] += 2 * out.self[cu]
		out.m2 += out.weight[cu]
	}
	return out
}

// oracleModularity computes Newman modularity of a partition on the
// symmetrised graph: Q = Σ_c [ in_c/m2 - (tot_c/m2)^2 ].
func oracleModularity(g *graph.Graph, com []int) float64 {
	wg := oracleSymmetrize(g)
	if wg.m2 == 0 {
		return 0
	}
	k := 0
	for _, c := range com {
		if c+1 > k {
			k = c + 1
		}
	}
	in := make([]float64, k)
	tot := make([]float64, k)
	for u := range wg.weight {
		tot[com[u]] += wg.weight[u]
		in[com[u]] += 2 * wg.self[u]
		for i, v := range wg.nbr[u] {
			if com[v] == com[u] {
				in[com[u]] += wg.w[u][i]
			}
		}
	}
	q := 0.0
	for c := 0; c < k; c++ {
		q += in[c]/wg.m2 - (tot[c]/wg.m2)*(tot[c]/wg.m2)
	}
	return q
}
