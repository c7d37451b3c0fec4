// Package graph provides the directed weighted graph representation shared
// by every component of the K-dash reproduction: construction, degrees,
// the column-normalised adjacency matrix A from the paper's Equation (1),
// and TSV edge-list I/O.
package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kdash/internal/sparse"
)

// Edge is a directed, weighted edge.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is an immutable directed weighted graph with nodes 0..n-1.
// Build one with a Builder or ParseEdgeList, or open a saved snapshot
// with OpenSnapshot. Node ids are stored as int32 (MaxNodes bounds n).
type Graph struct {
	n int
	// out[u] lists u's out-edges sorted by target; parallel weights in wOut.
	outPtr []int
	outTo  []int32
	outW   []float64

	// in is the in-adjacency (row u: u's in-edges, sources ascending),
	// derived on first use by inRows: no query reads it.
	inOnce sync.Once
	in     atomic.Pointer[sparse.CSR]

	// backing is the snapshot container the arrays alias
	// (OpenSnapshot), nil for a graph built on the heap.
	backing *snapshotBacking
}

// MaxNodes is the largest node count a graph can have: an index stores
// node ids as int32 (sparse.MaxDim). The bound is enforced where a node
// count enters the program — NewBuilder, ParseEdgeList and Apply — so
// nothing past it is ever allocated.
const MaxNodes = sparse.MaxDim

// Builder accumulates edges for a Graph. Duplicate (from, to) pairs have
// their weights summed. Self loops are allowed.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n nodes. It panics if n
// is negative or exceeds MaxNodes.
func NewBuilder(n int) *Builder {
	if n < 0 || n > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d outside [0,%d]", n, MaxNodes))
	}
	return &Builder{n: n}
}

// validWeight reports whether w can weigh an edge: RWR transition
// probabilities are proportional to edge weights, so a weight must be
// positive and finite. NaN fails the comparison; +Inf would make its
// column's probabilities NaN.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// AddEdge records the directed edge from -> to with the given weight,
// which must be positive and finite.
func (b *Builder) AddEdge(from, to int, weight float64) error {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", from, to, b.n)
	}
	if !validWeight(weight) {
		return fmt.Errorf("graph: edge (%d,%d) has weight %v, not positive and finite", from, to, weight)
	}
	b.edges = append(b.edges, Edge{from, to, weight})
	return nil
}

// AddUndirected records the edge in both directions with the same weight.
//
//kdash:testonly
func (b *Builder) AddUndirected(u, v int, weight float64) error {
	if err := b.AddEdge(u, v, weight); err != nil {
		return err
	}
	if u != v {
		return b.AddEdge(v, u, weight)
	}
	return nil
}

// byEndpoints orders edges by (From, To), the CSR order.
func byEndpoints(x, y Edge) int {
	if c := cmp.Compare(x.From, y.From); c != 0 {
		return c
	}
	return cmp.Compare(x.To, y.To)
}

// Build produces the immutable Graph, merging duplicate edges.
//
//kdash:deterministic
func (b *Builder) Build() *Graph {
	// Edges recorded in order (a shard's induced subgraph, a relabelled
	// graph walked row by row) need neither the copy nor the sort.
	ed := b.edges
	if !slices.IsSortedFunc(ed, byEndpoints) {
		ed = slices.Clone(ed)
		slices.SortFunc(ed, byEndpoints)
	}
	g := &Graph{n: b.n, outPtr: make([]int, b.n+1)}
	g.outTo = make([]int32, 0, len(ed))
	g.outW = make([]float64, 0, len(ed))
	for i := 0; i < len(ed); {
		j := i
		w := 0.0
		for j < len(ed) && ed[j].From == ed[i].From && ed[j].To == ed[i].To {
			w += ed[j].Weight
			j++
		}
		g.outTo = append(g.outTo, int32(ed[i].To))
		g.outW = append(g.outW, w)
		g.outPtr[ed[i].From+1]++
		i = j
	}
	for u := 0; u < b.n; u++ {
		g.outPtr[u+1] += g.outPtr[u]
	}
	return g
}

// FromCSR returns the graph whose out-adjacency is the given CSR: node
// u's out-neighbours are to[ptr[u]:ptr[u+1]], strictly ascending, with
// positive finite weights w. The graph takes the slices over (the
// caller must not modify them), so a caller that already produces its
// rows in order builds a graph with no edge list in between.
func FromCSR(ptr []int, to []int32, w []float64) (*Graph, error) {
	n := len(ptr) - 1
	if n < 0 || n > MaxNodes || ptr[0] != 0 || ptr[n] != len(to) || len(w) != len(to) {
		return nil, fmt.Errorf("graph: malformed CSR (%d pointers, %d targets, %d weights)", len(ptr), len(to), len(w))
	}
	for u := 0; u < n; u++ {
		if ptr[u] > ptr[u+1] {
			return nil, fmt.Errorf("graph: CSR pointer %d decreases", u)
		}
		for i := ptr[u]; i < ptr[u+1]; i++ {
			if to[i] < 0 || int(to[i]) >= n || (i > ptr[u] && to[i-1] >= to[i]) {
				return nil, fmt.Errorf("graph: CSR row %d is not strictly ascending in [0,%d)", u, n)
			}
			if !validWeight(w[i]) {
				return nil, fmt.Errorf("graph: edge (%d,%d) has weight %v, not positive and finite", u, to[i], w[i])
			}
		}
	}
	return &Graph{n: n, outPtr: ptr, outTo: to, outW: w}, nil
}

// inRows returns the in-adjacency, transposing the out-rows on the
// first call; concurrent callers wait for that one derivation.
func (g *Graph) inRows() *sparse.CSR {
	g.inOnce.Do(func() {
		in := &sparse.CSR{Rows: g.n, Cols: g.n, RowPtr: make([]int, g.n+1), ColIdx: make([]int32, len(g.outTo)), Val: make([]float64, len(g.outTo))}
		for _, to := range g.outTo {
			in.RowPtr[to+1]++
		}
		for u := 0; u < g.n; u++ {
			in.RowPtr[u+1] += in.RowPtr[u]
		}
		next := make([]int, g.n)
		copy(next, in.RowPtr[:g.n])
		for u := 0; u < g.n; u++ {
			for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
				to := g.outTo[i]
				in.ColIdx[next[to]] = int32(u)
				in.Val[next[to]] = g.outW[i]
				next[to]++
			}
		}
		g.in.Store(in)
	})
	return g.in.Load()
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// M reports the number of (merged) directed edges.
func (g *Graph) M() int { return len(g.outTo) }

// OutDegree reports the number of out-edges of u.
func (g *Graph) OutDegree(u int) int { return g.outPtr[u+1] - g.outPtr[u] }

// InDegree reports the number of in-edges of u.
func (g *Graph) InDegree(u int) int {
	in := g.inRows()
	return in.RowPtr[u+1] - in.RowPtr[u]
}

// Degree reports the number of edges incident to u (in + out), the measure
// used by the paper's degree reordering.
func (g *Graph) Degree(u int) int { return g.OutDegree(u) + g.InDegree(u) }

// OutNeighbors invokes fn for every out-edge (u -> to, w) of u.
func (g *Graph) OutNeighbors(u int, fn func(to int, w float64)) {
	for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
		fn(int(g.outTo[i]), g.outW[i])
	}
}

// OutCSR exposes the out-adjacency in CSR form: u's out-neighbours are
// to[ptr[u]:ptr[u+1]], ascending. The slices alias the graph's storage
// (a sealed snapshot's memory, for an opened one) and must be treated
// as read-only; they are valid only while the graph is reachable.
func (g *Graph) OutCSR() (ptr []int, to []int32) { return g.outPtr, g.outTo }

// OutWeights returns the weights parallel to OutCSR's targets, under
// the same read-only contract.
func (g *Graph) OutWeights() []float64 { return g.outW }

// InNeighbors invokes fn for every in-edge (from -> u, w) of u, sources
// ascending.
func (g *Graph) InNeighbors(u int, fn func(from int, w float64)) {
	in := g.inRows()
	for i := in.RowPtr[u]; i < in.RowPtr[u+1]; i++ {
		fn(int(in.ColIdx[i]), in.Val[i])
	}
}

// HasEdge reports whether the (merged) directed edge from -> to exists.
// Out-of-range endpoints report false rather than panicking, so callers
// validating prospective delta ops need no separate range check. Out-
// lists are sorted by target, so the lookup is a binary search.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.outTo[g.outPtr[from]:g.outPtr[from+1]], int32(to))
	return found
}

// OutWeightSum reports the total weight of u's out-edges.
func (g *Graph) OutWeightSum(u int) float64 {
	s := 0.0
	for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
		s += g.outW[i]
	}
	return s
}

// Edges returns a copy of all directed edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
			out = append(out, Edge{u, int(g.outTo[i]), g.outW[i]})
		}
	}
	return out
}

// ColumnNormalized returns the paper's matrix A in CSC form:
// A[u][v] = w(v->u) / sum of v's out-weights, i.e. column v holds the
// transition probabilities out of node v. Nodes with no out-edges yield an
// all-zero column (the walk can only restart from them), which keeps
// W = I - (1-c)A nonsingular.
func (g *Graph) ColumnNormalized() *sparse.CSC {
	m := &sparse.CSC{Rows: g.n, Cols: g.n, ColPtr: make([]int, g.n+1)}
	m.RowIdx = make([]int32, 0, g.M())
	m.Val = make([]float64, 0, g.M())
	for v := 0; v < g.n; v++ {
		if total := g.OutWeightSum(v); total > 0 {
			// Column v = out-edges of v, already sorted by target.
			for i := g.outPtr[v]; i < g.outPtr[v+1]; i++ {
				m.RowIdx = append(m.RowIdx, g.outTo[i])
				m.Val = append(m.Val, g.outW[i]/total)
			}
		}
		m.ColPtr[v+1] = len(m.RowIdx)
	}
	return m
}

// PermutedColumnNormalized returns ColumnNormalized().PermuteSym(perm)
// — A with node u renamed to perm[u] — bit for bit, in one pass: the
// new rows are walked in ascending order over the in-adjacency (row u of
// A lists u's in-edges, derived on first use), which hands every new
// column its rows sorted.
func (g *Graph) PermutedColumnNormalized(perm []int) *sparse.CSC {
	if len(perm) != g.n {
		panic("graph: PermutedColumnNormalized permutation has wrong length")
	}
	inv := make([]int, g.n)
	total := make([]float64, g.n)
	m := &sparse.CSC{Rows: g.n, Cols: g.n, ColPtr: make([]int, g.n+1)}
	for v := 0; v < g.n; v++ {
		inv[perm[v]] = v
		if total[v] = g.OutWeightSum(v); total[v] > 0 {
			m.ColPtr[perm[v]+1] = g.outPtr[v+1] - g.outPtr[v]
		}
	}
	for c := 0; c < g.n; c++ {
		m.ColPtr[c+1] += m.ColPtr[c]
	}
	m.RowIdx = make([]int32, m.ColPtr[g.n])
	m.Val = make([]float64, m.ColPtr[g.n])
	// ColPtr[c] is column c's fill cursor until the shift back below.
	in := g.inRows()
	for r := 0; r < g.n; r++ {
		u := inv[r]
		for i := in.RowPtr[u]; i < in.RowPtr[u+1]; i++ {
			v := in.ColIdx[i]
			at := m.ColPtr[perm[v]]
			m.RowIdx[at] = int32(r)
			m.Val[at] = in.Val[i] / total[v]
			m.ColPtr[perm[v]]++
		}
	}
	copy(m.ColPtr[1:], m.ColPtr[:g.n])
	m.ColPtr[0] = 0
	return m
}

// ParseEdgeList reads a whitespace-separated edge list: one edge per line,
// "from to [weight]". Lines starting with '#' or '%' and blank lines are
// skipped. Node IDs must be integers in [0, MaxNodes); n is inferred as
// 1 + max node id unless minNodes is larger, and may not exceed MaxNodes.
func ParseEdgeList(r io.Reader, minNodes int) (*Graph, error) {
	if minNodes > MaxNodes {
		return nil, fmt.Errorf("graph: %d nodes exceed the %d an index's int32 ids address", minNodes, MaxNodes)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var edges []Edge
	maxID := minNodes - 1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'from to [weight]', got %q", line, text)
		}
		from, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id %q: %v", line, fields[0], err)
		}
		to, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id %q: %v", line, fields[1], err)
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", line)
		}
		if from >= MaxNodes || to >= MaxNodes {
			return nil, fmt.Errorf("graph: line %d: node id %d past the %d nodes an index's int32 ids address", line, max(from, to), MaxNodes)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", line, fields[2], err)
			}
			if !validWeight(w) {
				return nil, fmt.Errorf("graph: line %d: weight %v is not positive and finite", line, w)
			}
		}
		edges = append(edges, Edge{from, to, w})
		if from > maxID {
			maxID = from
		}
		if to > maxID {
			maxID = to
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %v", err)
	}
	b := NewBuilder(maxID + 1)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// WriteEdgeList serialises the graph as "from\tto\tweight" lines.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.n, g.M()); err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\n", u, g.outTo[i], g.outW[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
