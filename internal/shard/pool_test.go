package shard

import (
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/lu"
	"kdash/internal/reorder"
)

// heldVectors reports, per shard, how many pooled vectors st has
// checked out for it: its residual and its solves' workspaces. A query
// returns nothing before it releases, so after the push and the rank
// these are every vector it held at once.
func heldVectors(st *pushState) []int {
	held := make([]int, len(st.solves))
	for si := range st.solves {
		held[si] = len(st.solves[si].lower)
		if st.res[si] != nil {
			held[si]++
		}
	}
	return held
}

// TestScratchPoolHoldsTheDeepestQuery runs a serial stream whose queries
// solve several shards two or three times each, and pins the pool to
// the deepest single query: it holds no more vectors than that query
// held at once. The stream is checked to tell this from per-shard free
// lists, which would keep each shard's own peak: those peaks come from
// different queries and sum past any one query's total.
func TestScratchPoolHoldsTheDeepestQuery(t *testing.T) {
	// A loose tolerance keeps each query to two or three solves of each
	// shard it reaches.
	g := gen.CommunityOverlay(1000, 3, 20, 0.95, 7)
	sx, err := Build(g, Options{Shards: 6, Reorder: reorder.Hybrid, Seed: 1, QueryTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	deepest, repeated := 0, 0
	perShard := make([]int, sx.Shards()) // each shard's own peak, as per-shard lists would keep
	for q := 0; q < sx.N(); q += 7 {
		root := []int{q}
		st, qs, err := sx.runPush(nil, nil, root, []float64{sx.c}, root, 10)
		if err == nil {
			_, err = st.rank(10, &core.SearchOptions{}, &qs)
		}
		if err != nil {
			sx.putPushState(st)
			t.Fatal(err)
		}
		total := 0
		for si, h := range heldVectors(st) {
			total += h
			perShard[si] = max(perShard[si], h)
			if len(st.solves[si].lower) >= 2 {
				repeated++
			}
		}
		deepest = max(deepest, total)
		sx.putPushState(st)
	}
	sum := 0
	for _, h := range perShard {
		sum += h
	}
	t.Logf("deepest query held %d vectors; per-shard peaks %v (sum %d); %d shard solves repeated", deepest, perShard, sum, repeated)
	if repeated == 0 || sum <= deepest {
		t.Fatalf("the stream does not tell one pool from per-shard lists: per-shard peaks sum to %d, the deepest query held %d, %d repeated shard solves", sum, deepest, repeated)
	}
	if got := len(sx.vecs.free.items); got > deepest {
		t.Fatalf("the pool holds %d vectors after a serial stream whose deepest query held %d", got, deepest)
	}
	if got := pooledScratch(sx); got != 8*int64(len(sx.vecs.free.items)*sx.vecs.n) {
		t.Fatalf("the pool's vectors hold %d bytes, want %d vectors of %d rows", got, len(sx.vecs.free.items), sx.vecs.n)
	}
}

// twoIslands builds a two-shard index whose shards share no edge, each
// a weighted ring of size nodes: a query solves its home shard once.
func twoIslands(t *testing.T, size int) *ShardedIndex {
	t.Helper()
	b := graph.NewBuilder(2 * size)
	assign := make([]int, 2*size)
	for s := 0; s < 2; s++ {
		for i := 0; i < size; i++ {
			u, v := s*size+i, s*size+(i+1)%size
			if err := b.AddEdge(u, v, 1+float64(i%3)); err != nil {
				t.Fatal(err)
			}
			assign[u] = s
		}
	}
	sx, err := Build(b.Build(), Options{Reorder: reorder.Hybrid, Seed: 1, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// TestScratchPoolServesEveryShard: the vectors a query in one shard
// released serve the next query's solve of another shard, so a stream
// that moves between shards allocates no vector after its first query.
func TestScratchPoolServesEveryShard(t *testing.T) {
	sx := twoIslands(t, 12)
	if _, _, err := sx.TopK(0, 3); err != nil { // homed in shard 0
		t.Fatal(err)
	}
	released := map[*lu.Workspace]bool{}
	for _, w := range sx.vecs.free.items {
		released[w] = true
	}
	if len(released) != 2 {
		t.Fatalf("a one-solve query left %d vectors in the pool, want its residual and its workspace", len(released))
	}
	q := []int{12} // homed in shard 1
	st, _, err := sx.runPush(nil, nil, q, []float64{sx.c}, q, 3)
	defer sx.putPushState(st)
	if err != nil {
		t.Fatal(err)
	}
	ss := &st.solves[1]
	if len(ss.lower) != 1 || !released[ss.lower[0]] || !released[st.res[1]] {
		t.Fatal("shard 1's solve did not reuse the vectors shard 0's query released")
	}
}

// TestScratchPoolIsLIFO: the vector released last is checked out first.
func TestScratchPoolIsLIFO(t *testing.T) {
	sx := twoIslands(t, 5)
	a, b := sx.getVector(), sx.getVector()
	if len(a.W) != sx.vecs.n || len(a.W) != sx.PartLen(0) {
		t.Fatalf("a vector has %d rows, want the longest part's %d", len(a.W), sx.PartLen(0))
	}
	sx.putVector(a)
	sx.putVector(b)
	w := sx.getVector()
	last := w == b
	sx.putVector(w)
	if !last {
		t.Fatal("the pool did not hand back the vector released last")
	}
}

// TestScratchPoolSharedAcrossEpochs pins the pool's rule under Apply:
// a successor shares its parent's pool while every part fits its
// vectors, and gets a fresh one, sized to its longest part, once an
// insertion makes a part longer than they are. Each epoch answers from
// its own pool, unchanged.
func TestScratchPoolSharedAcrossEpochs(t *testing.T) {
	// Two rings of 10 linked both ways: both shards have a sink, so both
	// are 11 rows long.
	b := graph.NewBuilder(20)
	assign := make([]int, 20)
	for u := 0; u < 20; u++ {
		s := u / 10
		if err := b.AddEdge(u, s*10+(u+1)%10, 1); err != nil {
			t.Fatal(err)
		}
		assign[u] = s
	}
	for _, e := range [][2]int{{0, 10}, {10, 0}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	ep0, err := Build(b.Build(), Options{Reorder: reorder.Hybrid, Seed: 1, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(sx *ShardedIndex, edit func(d *graph.Delta) error) *ShardedIndex {
		t.Helper()
		d := sx.Graph().NewDelta()
		if err := edit(d); err != nil {
			t.Fatal(err)
		}
		next, _, err := sx.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	query := func(sx *ShardedIndex) {
		t.Helper()
		for _, q := range []int{3, 14} {
			if _, _, err := sx.TopK(q, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	query(ep0)
	// An edge inside shard 1 lengthens nothing: the pool is shared.
	ep1 := apply(ep0, func(d *graph.Delta) error { return d.AddEdge(12, 17, 2) })
	// An inserted node goes to shard 0 (the lower of two equal loads),
	// which grows to 12 rows: a fresh pool.
	ep2 := apply(ep1, func(d *graph.Delta) error { return d.AddEdge(d.AddNode(), 5, 1) })
	// The next goes to shard 1, which grows to 12 rows too, no longer
	// than the pool's vectors: shared again.
	ep3 := apply(ep2, func(d *graph.Delta) error { return d.AddEdge(d.AddNode(), 15, 1) })
	if ep0.vecs.n != 11 || ep2.vecs.n != 12 {
		t.Fatalf("the pools' vectors have %d and %d rows, want 11 and 12", ep0.vecs.n, ep2.vecs.n)
	}
	if ep1.vecs != ep0.vecs || ep2.vecs == ep1.vecs || ep3.vecs != ep2.vecs {
		t.Fatal("the epochs' pools do not follow the rule: share while every part fits, fresh when one outgrows the vectors")
	}
	held := len(ep0.vecs.free.items)
	query(ep1)
	if got := len(ep0.vecs.free.items); got != held {
		t.Fatalf("epoch 1's queries grew the shared pool from %d to %d vectors: they did not reuse epoch 0's", held, got)
	}
	query(ep3)
	query(ep0)
	if got := len(ep0.vecs.free.items); got != held {
		t.Fatalf("epoch 0's pool went from %d to %d vectors after epoch 3's queries", held, got)
	}
	for _, w := range ep2.vecs.free.items {
		if len(w.W) != 12 {
			t.Fatalf("epoch 3's pool holds a %d-row vector, want 12", len(w.W))
		}
	}
}
