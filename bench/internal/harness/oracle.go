package harness

import (
	"fmt"
	"math"
	"sort"

	"kdash"
	"kdash/bench/internal/workload"
)

// OracleTol is how far a served score may sit from the iterative
// method's.
const OracleTol = 1e-9

// Oracle holds the runner's own copy of the graph and checks served
// answers against the classical iterative method on it.
type Oracle struct {
	n     int
	edges []workload.Edge
	added map[workload.Edge]bool // update edges currently in the graph
}

// NewOracle starts from the generated edge list.
func NewOracle(n int, edges []workload.Edge) *Oracle {
	return &Oracle{n: n, edges: edges, added: map[workload.Edge]bool{}}
}

// Apply mirrors one acknowledged update onto the runner's graph.
func (o *Oracle) Apply(edges []workload.Edge, remove bool) {
	for _, e := range edges {
		if remove {
			delete(o.added, e)
		} else {
			o.added[e] = true
		}
	}
}

func (o *Oracle) graph() (*kdash.Graph, error) {
	b := kdash.NewBuilder(o.n)
	for _, e := range o.edges {
		if err := b.AddEdge(e.From, e.To, 1); err != nil {
			return nil, err
		}
	}
	for e := range o.added {
		if err := b.AddEdge(e.From, e.To, 1); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Check re-issues the queries and compares every answer with the
// iterative method on the runner's graph. It returns how many answers
// were wrong and describes the first. An answer is right when its nodes
// are distinct, each served score is that node's exact proximity, and
// the i-th served score is the i-th largest proximity overall — the
// exact top-k, without depending on how equal scores are ordered.
func (o *Oracle) Check(c *Client, queries []int, k int) (wrong int, first error) {
	fail := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	g, err := o.graph()
	if err != nil {
		return len(queries), err
	}
	for _, q := range queries {
		r, _, err := c.TopK(q, k, false)
		if err != nil {
			fail(err)
			continue
		}
		want, err := kdash.IterativeProximities(g, q, 0)
		if err != nil {
			fail(err)
			continue
		}
		if err := compare(r.Results, want); err != nil {
			fail(fmt.Errorf("oracle: q=%d: %w", q, err))
		}
	}
	return wrong, first
}

func compare(got []Result, want []float64) error {
	ranked := append([]float64(nil), want...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
	seen := map[int]bool{}
	for i, r := range got {
		switch {
		case r.Node < 0 || r.Node >= len(want):
			return fmt.Errorf("rank %d: node %d out of range", i+1, r.Node)
		case seen[r.Node]:
			return fmt.Errorf("rank %d: node %d repeated", i+1, r.Node)
		case math.Abs(r.Score-want[r.Node]) > OracleTol:
			return fmt.Errorf("rank %d: node %d scored %.12g, iterative method says %.12g", i+1, r.Node, r.Score, want[r.Node])
		case math.Abs(r.Score-ranked[i]) > OracleTol:
			return fmt.Errorf("rank %d: score %.12g, the %d-th largest proximity is %.12g", i+1, r.Score, i+1, ranked[i])
		}
		seen[r.Node] = true
	}
	return nil
}
