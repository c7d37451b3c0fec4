package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, b *Builder, from, to int, w float64) {
	t.Helper()
	if err := b.AddEdge(from, to, w); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", from, to, w, err)
	}
}

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		mustEdge(t, b, i, i+1, 1)
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3)
	mustEdge(t, b, 0, 1, 2)
	mustEdge(t, b, 1, 2, 1)
	mustEdge(t, b, 0, 1, 3) // duplicate, weights sum
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	var gotW float64
	g.OutNeighbors(0, func(to int, w float64) {
		if to == 1 {
			gotW = w
		}
	})
	if gotW != 5 {
		t.Errorf("merged weight = %v, want 5", gotW)
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees wrong: out0=%d in1=%d deg1=%d", g.OutDegree(0), g.InDegree(1), g.Degree(1))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2, 1); err == nil {
		t.Error("expected error for out-of-range target")
	}
	if err := b.AddEdge(-1, 0, 1); err == nil {
		t.Error("expected error for negative source")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Error("expected error for zero weight")
	}
	if err := b.AddEdge(0, 1, -2); err == nil {
		t.Error("expected error for negative weight")
	}
}

// TestNonFiniteWeightsRefused checks that every way an edge weight
// enters a graph refuses NaN and +Inf, which a "w <= 0" test lets
// through: NaN compares false both ways, and +Inf turns its column of A
// into NaN. The parser's error names the line.
func TestNonFiniteWeightsRefused(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if err := NewBuilder(2).AddEdge(0, 1, w); err == nil {
			t.Errorf("Builder.AddEdge accepted weight %v", w)
		}
		if err := NewDelta(2).AddEdge(0, 1, w); err == nil {
			t.Errorf("Delta.AddEdge accepted weight %v", w)
		}
		if _, err := FromCSR([]int{0, 1, 1}, []int32{1}, []float64{w}); err == nil {
			t.Errorf("FromCSR accepted weight %v", w)
		}
		in := fmt.Sprintf("0 1\n1 2 %v\n2 0\n", w)
		if _, err := ParseEdgeList(strings.NewReader(in), 0); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ParseEdgeList(%q) = %v, want an error naming line 2", in, err)
		}
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddUndirected(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUndirected(2, 2, 1); err != nil { // self loop added once
		t.Fatal(err)
	}
	g := b.Build()
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3 (two directions + one self loop)", g.M())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph n=%d m=%d", g.N(), g.M())
	}
	g2 := NewBuilder(5).Build() // nodes, no edges
	if g2.M() != 0 {
		t.Errorf("edgeless graph m=%d", g2.M())
	}
	a := g2.ColumnNormalized()
	if a.NNZ() != 0 {
		t.Errorf("edgeless adjacency nnz=%d", a.NNZ())
	}
}

func TestColumnNormalizedStochastic(t *testing.T) {
	// Property: each non-empty column of A sums to 1 and entries are the
	// edge weights divided by the source's out-weight.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), 0.1+rng.Float64())
		}
		g := b.Build()
		a := g.ColumnNormalized()
		for v := 0; v < n; v++ {
			sum := 0.0
			for i := a.ColPtr[v]; i < a.ColPtr[v+1]; i++ {
				if a.Val[i] <= 0 || a.Val[i] > 1+1e-12 {
					return false
				}
				sum += a.Val[i]
			}
			if g.OutDegree(v) == 0 {
				if sum != 0 {
					return false
				}
			} else if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestColumnNormalizedDangling(t *testing.T) {
	b := NewBuilder(3)
	mustEdge(t, b, 0, 1, 1)
	mustEdge(t, b, 0, 2, 3)
	g := b.Build() // nodes 1 and 2 dangle
	a := g.ColumnNormalized()
	if !slices.Equal(a.ColPtr, []int{0, 2, 2, 2}) || !slices.Equal(a.RowIdx, []int32{1, 2}) {
		t.Fatalf("A's pattern: ColPtr %v RowIdx %v, want column 0 to hold rows 1 and 2 and the dangling columns none", a.ColPtr, a.RowIdx)
	}
	if math.Abs(a.Val[0]-0.25) > 1e-12 || math.Abs(a.Val[1]-0.75) > 1e-12 {
		t.Errorf("A[1][0], A[2][0] = %v, want 0.25, 0.75", a.Val)
	}
}

// TestRelabelPreservesStructure checks the one relabelling the engine
// runs, PermutedColumnNormalized: A with node u renamed to perm[u] keeps
// every entry, moved to its renamed row and column.
func TestRelabelPreservesStructure(t *testing.T) {
	b := NewBuilder(4)
	mustEdge(t, b, 0, 1, 2)
	mustEdge(t, b, 1, 2, 3)
	mustEdge(t, b, 1, 3, 1)
	mustEdge(t, b, 2, 3, 4)
	g := b.Build()
	perm := []int{3, 2, 1, 0}
	a, h := g.ColumnNormalized(), g.PermutedColumnNormalized(perm)
	if h.NNZ() != a.NNZ() {
		t.Fatalf("entry count changed: %d vs %d", h.NNZ(), a.NNZ())
	}
	for c := 0; c < a.Cols; c++ {
		for i := a.ColPtr[c]; i < a.ColPtr[c+1]; i++ {
			r, pc := int(a.RowIdx[i]), perm[c]
			j, ok := slices.BinarySearch(h.RowIdx[h.ColPtr[pc]:h.ColPtr[pc+1]], int32(perm[r]))
			if !ok || h.Val[h.ColPtr[pc]+j] != a.Val[i] {
				t.Errorf("A[%d][%d] = %v should appear as entry (%d,%d) after relabel", r, c, a.Val[i], perm[r], pc)
			}
		}
	}
}

func TestParseEdgeList(t *testing.T) {
	input := `# comment
% another comment
0 1
1 2 2.5

3 0 0.5
`
	g, err := ParseEdgeList(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4, 3", g.N(), g.M())
	}
	var w float64
	g.OutNeighbors(1, func(to int, wt float64) {
		if to == 2 {
			w = wt
		}
	})
	if w != 2.5 {
		t.Errorf("weight = %v, want 2.5", w)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"one field", "0\n"},
		{"bad source", "x 1\n"},
		{"bad target", "1 y\n"},
		{"negative id", "-1 2\n"},
		{"bad weight", "0 1 w\n"},
		{"zero weight", "0 1 0\n"},
		{"negative weight", "0 1 -3\n"},
		{"NaN weight", "0 1 NaN\n"},
		{"infinite weight", "0 1 +Inf\n"},
	}
	for _, tc := range cases {
		if _, err := ParseEdgeList(strings.NewReader(tc.in), 0); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestParseEdgeListMinNodes(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Errorf("n = %d, want 10 (minNodes)", g.N())
	}
}

// TestNodeCountBoundedAtInt32 pins the one place the node-count rule
// lives: an index stores node ids as int32, so every way a node count
// enters a graph — an edge-list id, ParseEdgeList's minNodes, a
// NewBuilder count, a delta's node insertions — is refused past
// MaxNodes before any n-sized array is allocated.
func TestNodeCountBoundedAtInt32(t *testing.T) {
	if MaxNodes != math.MaxInt32 {
		t.Fatalf("MaxNodes = %d, want math.MaxInt32", MaxNodes)
	}
	for _, in := range []string{"0 2147483647\n", "2147483647 0\n", "0 1\n9223372036854775807 1\n"} {
		if _, err := ParseEdgeList(strings.NewReader(in), 0); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("ParseEdgeList(%q) = %v, want a refusal naming the int32 ids", in, err)
		}
	}
	if _, err := ParseEdgeList(strings.NewReader("0 1\n"), MaxNodes+1); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Errorf("ParseEdgeList(minNodes=MaxNodes+1) = %v, want a refusal naming the int32 ids", err)
	}

	NewBuilder(MaxNodes) // records the count only; Build would allocate it
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBuilder(MaxNodes+1) did not panic")
			}
		}()
		NewBuilder(MaxNodes + 1)
	}()

	g := lineGraph(t, 4)
	d := g.NewDelta()
	d.addNodes = MaxNodes - g.N() + 1
	if _, err := g.Apply(d); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Errorf("Apply growing past MaxNodes = %v, want a refusal naming the int32 ids", err)
	}
	wire, err := UnmarshalDelta(d.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Apply(wire); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Errorf("Apply of a decoded delta growing past MaxNodes = %v, want a refusal naming the int32 ids", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(12)
	for i := 0; i < 40; i++ {
		b.AddEdge(rng.Intn(12), rng.Intn(12), 1+rng.Float64())
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEdgeList(&buf, 12)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		want := map[int]float64{}
		g.OutNeighbors(u, func(to int, w float64) { want[to] = w })
		back.OutNeighbors(u, func(to int, w float64) {
			if math.Abs(want[to]-w) > 1e-9 {
				t.Errorf("edge %d->%d weight %v, want %v", u, to, w, want[to])
			}
			delete(want, to)
		})
		if len(want) != 0 {
			t.Errorf("node %d lost edges %v", u, want)
		}
	}
}

func TestEdgesAccessor(t *testing.T) {
	b := NewBuilder(3)
	mustEdge(t, b, 0, 1, 1)
	mustEdge(t, b, 1, 2, 2)
	g := b.Build()
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("len(edges) = %d", len(es))
	}
	if es[0] != (Edge{0, 1, 1}) || es[1] != (Edge{1, 2, 2}) {
		t.Errorf("edges = %v", es)
	}
}

func TestOutWeightSum(t *testing.T) {
	b := NewBuilder(2)
	mustEdge(t, b, 0, 1, 1.5)
	mustEdge(t, b, 0, 0, 2.5)
	g := b.Build()
	if got := g.OutWeightSum(0); got != 4 {
		t.Errorf("OutWeightSum(0) = %v, want 4", got)
	}
	if got := g.OutWeightSum(1); got != 0 {
		t.Errorf("OutWeightSum(1) = %v, want 0", got)
	}
}

// TestRowsSorted pins the invariant HasEdge's binary search and
// ColumnNormalized's sort-free copy rely on: every out-row (and in-row)
// is strictly ascending, whatever order the edges arrived in and after
// any Apply.
func TestRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 60
	b := NewBuilder(n)
	for i := 0; i < 500; i++ {
		mustEdge(t, b, rng.Intn(n), rng.Intn(n), 0.5+rng.Float64())
	}
	g := b.Build()
	d := g.NewDelta()
	for i := 0; i < 40; i++ {
		if err := d.AddEdge(rng.Intn(n), rng.Intn(n), 1); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{g, g2} {
		a := g.ColumnNormalized()
		in := g.inRows()
		for u := 0; u < n; u++ {
			for _, row := range [][]int32{g.outTo[g.outPtr[u]:g.outPtr[u+1]], in.ColIdx[in.RowPtr[u]:in.RowPtr[u+1]], a.RowIdx[a.ColPtr[u]:a.ColPtr[u+1]]} {
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Fatalf("node %d: row %v not strictly ascending", u, row)
					}
				}
			}
			for v := -1; v <= n; v++ {
				want := false
				for _, to := range g.outTo[g.outPtr[u]:g.outPtr[u+1]] {
					want = want || int(to) == v
				}
				if got := g.HasEdge(u, v); got != want {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
				}
			}
		}
	}
}

// TestFromCSR checks that a graph handed its out-rows in CSR form is,
// array for array, the graph a Builder makes of the same edges, and
// that rows out of order, out of range or with a non-positive weight
// are refused.
func TestFromCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			mustEdge(t, b, rng.Intn(n), rng.Intn(n), 0.1+rng.Float64())
		}
		want := b.Build()
		got, err := FromCSR(slices.Clone(want.outPtr), slices.Clone(want.outTo), slices.Clone(want.outW))
		if err != nil {
			t.Fatal(err)
		}
		sameArrays(t, fmt.Sprintf("trial %d", trial), got, want)
	}
	for _, tc := range []struct {
		name string
		ptr  []int
		to   []int32
		w    []float64
	}{
		{"no pointers", nil, nil, nil},
		{"short weights", []int{0, 1}, []int32{0}, nil},
		{"pointer past the edges", []int{0, 2}, []int32{0}, []float64{1}},
		{"pointer decreases", []int{0, 2, 1, 2}, []int32{1, 2}, []float64{1, 1}},
		{"target out of range", []int{0, 1}, []int32{1}, []float64{1}},
		{"negative target", []int{0, 1}, []int32{-1}, []float64{1}},
		{"row out of order", []int{0, 2, 2}, []int32{1, 0}, []float64{1, 1}},
		{"repeated target", []int{0, 2, 2}, []int32{1, 1}, []float64{1, 1}},
		{"zero weight", []int{0, 1, 1}, []int32{1}, []float64{0}},
		{"NaN weight", []int{0, 1, 1}, []int32{1}, []float64{math.NaN()}},
	} {
		if _, err := FromCSR(tc.ptr, tc.to, tc.w); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
