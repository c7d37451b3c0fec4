package graph

// Graph mutation. A Graph stays immutable; changes are described by a
// Delta — an ordered batch of edge additions, edge removals and node
// insertions relative to a base graph — and applied functionally:
// Apply returns a *new* Graph, leaving the base untouched. This is the
// contract the index update path (shard.ShardedIndex.Apply) is built
// on: in-flight readers keep the old snapshot, writers publish the new
// one, and nobody ever observes a half-applied batch.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrEdgeNotFound reports a RemoveEdge op whose edge does not exist at
// the point of the batch it executes in. Callers translating Apply
// failures into API responses can errors.Is against it to distinguish a
// client mistake from an internal failure.
var ErrEdgeNotFound = errors.New("edge not found")

type deltaOpKind uint8

const (
	opAddEdge deltaOpKind = iota
	opRemoveEdge
)

type deltaOp struct {
	kind     deltaOpKind
	from, to int
	w        float64
}

// Delta is an ordered batch of mutations against a base graph with a
// known node count. Ops are validated as they are recorded (ranges,
// positive weights) and again structurally at Apply time; a Delta built
// for one graph cannot be applied to a graph of a different size.
//
// Semantics are sequential: AddEdge adds weight to the (merged) edge,
// creating it if absent — the same summing rule Builder uses — and
// RemoveEdge deletes the merged edge entirely, whatever its
// accumulated weight. "RemoveEdge; AddEdge" is therefore a weight
// replacement, while "AddEdge; RemoveEdge" deletes the edge outright
// (including any weight it had before the batch).
type Delta struct {
	baseN    int
	addNodes int
	ops      []deltaOp
}

// NewDelta starts an empty batch against a graph with baseN nodes.
func NewDelta(baseN int) *Delta {
	if baseN < 0 {
		panic("graph: negative node count")
	}
	return &Delta{baseN: baseN}
}

// NewDelta starts an empty batch against this graph.
//
//kdash:testonly
func (g *Graph) NewDelta() *Delta { return NewDelta(g.n) }

// BaseN reports the node count the batch was built against.
func (d *Delta) BaseN() int { return d.baseN }

// AddedNodes reports how many nodes the batch inserts.
func (d *Delta) AddedNodes() int { return d.addNodes }

// Len reports the number of edge ops recorded.
func (d *Delta) Len() int { return len(d.ops) }

// AddNode inserts a new node and returns its id: the first inserted
// node is baseN, the next baseN+1, and so on. Subsequent edge ops may
// reference inserted ids.
func (d *Delta) AddNode() int {
	d.addNodes++
	return d.baseN + d.addNodes - 1
}

// n reports the node count after the batch's insertions so far.
func (d *Delta) n() int { return d.baseN + d.addNodes }

// AddEdge records adding weight to the directed edge from -> to
// (creating it if absent). Both endpoints may be inserted nodes.
func (d *Delta) AddEdge(from, to int, weight float64) error {
	if from < 0 || from >= d.n() || to < 0 || to >= d.n() {
		return fmt.Errorf("graph: delta edge (%d,%d) outside node range [0,%d)", from, to, d.n())
	}
	if !ValidWeight(weight) {
		return fmt.Errorf("graph: delta edge (%d,%d) has weight %v, not positive and finite", from, to, weight)
	}
	d.ops = append(d.ops, deltaOp{kind: opAddEdge, from: from, to: to, w: weight})
	return nil
}

// RemoveEdge records removing the (merged) directed edge from -> to.
// Whether the edge exists is only known at Apply time, where a missing
// edge fails the whole batch with ErrEdgeNotFound.
func (d *Delta) RemoveEdge(from, to int) error {
	if from < 0 || from >= d.n() || to < 0 || to >= d.n() {
		return fmt.Errorf("graph: delta edge (%d,%d) outside node range [0,%d)", from, to, d.n())
	}
	d.ops = append(d.ops, deltaOp{kind: opRemoveEdge, from: from, to: to})
	return nil
}

// Counts reports the batch's op totals: edge additions, edge removals
// and node insertions.
func (d *Delta) Counts() (added, removed, nodes int) {
	for _, op := range d.ops {
		if op.kind == opAddEdge {
			added++
		} else {
			removed++
		}
	}
	return added, removed, d.addNodes
}

// Edges returns the batch's edge ops as (from, to, weight) triples with
// weight 0 marking a removal, in recorded order. The slice is a copy.
func (d *Delta) Edges() []Edge {
	out := make([]Edge, len(d.ops))
	for i, op := range d.ops {
		out[i] = Edge{From: op.from, To: op.to, Weight: op.w}
	}
	return out
}

// Apply produces the graph with the batch applied, leaving g untouched.
// The result is exactly the graph a Builder fed the updated edge set
// would produce, so downstream consumers (normalisation, BFS, indexes)
// see no difference between an updated graph and a freshly built one.
//
// Ops on different source rows never interact, so Apply groups them by
// row (recorded order kept within a row), copies the untouched rows of
// the CSR arrays through in bulk and splices only the touched ones. The
// cost is one copy of the arrays plus the touched rows, not a rebuild
// of the edge set; the result derives its in-rows only if something
// reads them. A failing removal is reported for the lowest op
// index, as a sequential replay would. A batch that would grow the graph
// past MaxNodes is refused before anything is allocated.
//
//kdash:deterministic
func (g *Graph) Apply(d *Delta) (*Graph, error) {
	if d.baseN != g.n {
		return nil, fmt.Errorf("graph: delta built against %d nodes, graph has %d", d.baseN, g.n)
	}
	if d.addNodes > MaxNodes-g.n {
		return nil, fmt.Errorf("graph: delta grows %d nodes by %d, past the %d an index's int32 ids address", g.n, d.addNodes, MaxNodes)
	}
	order := make([]int, len(d.ops))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(d.ops[a].from, d.ops[b].from) })

	n2 := g.n + d.addNodes
	out := &Graph{
		n:      n2,
		outPtr: make([]int, n2+1),
		outTo:  make([]int32, 0, len(g.outTo)+len(d.ops)),
		outW:   make([]float64, 0, len(g.outW)+len(d.ops)),
	}
	for u := 0; u < g.n; u++ {
		out.outPtr[u+1] = g.outPtr[u+1] - g.outPtr[u] // degrees for now
	}
	copied := 0 // base rows below this are already in out
	copyRows := func(upto int) {
		if upto = min(upto, g.n); copied < upto {
			out.outTo = append(out.outTo, g.outTo[g.outPtr[copied]:g.outPtr[upto]]...)
			out.outW = append(out.outW, g.outW[g.outPtr[copied]:g.outPtr[upto]]...)
			copied = upto
		}
	}
	failed := -1
	for lo := 0; lo < len(order); {
		u := d.ops[order[lo]].from
		copyRows(u)
		start := len(out.outTo)
		copyRows(u + 1) // row u is now the tail of out, spliced in place
		for ; lo < len(order) && d.ops[order[lo]].from == u; lo++ {
			op := d.ops[order[lo]]
			at, found := slices.BinarySearch(out.outTo[start:], int32(op.to))
			at += start
			switch {
			case op.kind == opAddEdge && found:
				out.outW[at] += op.w
			case op.kind == opAddEdge:
				out.outTo = slices.Insert(out.outTo, at, int32(op.to))
				out.outW = slices.Insert(out.outW, at, op.w)
			case found:
				out.outTo = slices.Delete(out.outTo, at, at+1)
				out.outW = slices.Delete(out.outW, at, at+1)
			case failed < 0 || order[lo] < failed:
				failed = order[lo]
			}
		}
		out.outPtr[u+1] = len(out.outTo) - start
	}
	if failed >= 0 {
		op := d.ops[failed]
		return nil, fmt.Errorf("graph: delta op %d removes edge (%d,%d): %w", failed, op.from, op.to, ErrEdgeNotFound)
	}
	copyRows(g.n)
	for u := 0; u < n2; u++ {
		out.outPtr[u+1] += out.outPtr[u]
	}
	return out, nil
}

// AddEdge returns a copy of the graph with weight added to the directed
// edge from -> to (created if absent). Single-op convenience over
// NewDelta/Apply.
//
//kdash:testonly
func (g *Graph) AddEdge(from, to int, weight float64) (*Graph, error) {
	d := g.NewDelta()
	if err := d.AddEdge(from, to, weight); err != nil {
		return nil, err
	}
	return g.Apply(d)
}

// RemoveEdge returns a copy of the graph without the (merged) directed
// edge from -> to; a missing edge fails with ErrEdgeNotFound.
//
//kdash:testonly
func (g *Graph) RemoveEdge(from, to int) (*Graph, error) {
	d := g.NewDelta()
	if err := d.RemoveEdge(from, to); err != nil {
		return nil, err
	}
	return g.Apply(d)
}

// Extend appends next's ops to d, merging two sequentially recorded
// batches into one. next must have been built against the node count d
// produces (next.BaseN() == d.BaseN()+d.AddedNodes()), the contract a
// chain of deltas recorded one after another satisfies naturally.
// Applying the merged batch is equivalent to applying d then next: ops
// execute in recorded order and node ids never shift (insertions only
// append). This is the write-ahead log's memtable merge — pending
// batches fold into one so a single refactorization absorbs them all.
func (d *Delta) Extend(next *Delta) error {
	if next.baseN != d.n() {
		return fmt.Errorf("graph: delta built against %d nodes cannot extend one producing %d", next.baseN, d.n())
	}
	d.addNodes += next.addNodes
	d.ops = append(d.ops, next.ops...)
	return nil
}

// deltaWireVersion guards the binary encoding below; bump on any layout
// change so a stale log segment fails loudly instead of misparsing.
const deltaWireVersion = 1

// AppendBinary encodes the batch into buf and returns the extended
// slice. The encoding is deterministic (same delta, same bytes) and
// self-delimiting: version byte, then baseN / addNodes / op count as
// uvarints, then each op as kind byte + from/to uvarints + (additions
// only) the weight's IEEE-754 bits little-endian.
//
//kdash:deterministic
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = append(buf, deltaWireVersion)
	buf = binary.AppendUvarint(buf, uint64(d.baseN))
	buf = binary.AppendUvarint(buf, uint64(d.addNodes))
	buf = binary.AppendUvarint(buf, uint64(len(d.ops)))
	for _, op := range d.ops {
		buf = append(buf, byte(op.kind))
		buf = binary.AppendUvarint(buf, uint64(op.from))
		buf = binary.AppendUvarint(buf, uint64(op.to))
		if op.kind == opAddEdge {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.w))
		}
	}
	return buf
}

// UnmarshalDelta decodes a batch written by AppendBinary, re-validating
// every op through the recording API so a corrupt or adversarial blob
// can never yield a Delta that AddEdge would have rejected.
//
//kdash:deterministic
func UnmarshalDelta(data []byte) (*Delta, error) {
	if len(data) == 0 || data[0] != deltaWireVersion {
		return nil, fmt.Errorf("graph: bad delta encoding version")
	}
	data = data[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("graph: truncated delta encoding")
		}
		data = data[n:]
		return v, nil
	}
	baseN, err := next()
	if err != nil {
		return nil, err
	}
	addNodes, err := next()
	if err != nil {
		return nil, err
	}
	nops, err := next()
	if err != nil {
		return nil, err
	}
	const maxDeltaDim = 1 << 40
	if baseN > maxDeltaDim || addNodes > maxDeltaDim || nops > uint64(len(data)) {
		// Each op costs >= 3 encoded bytes, so op counts beyond the
		// remaining byte count are corrupt; reject before allocating.
		return nil, fmt.Errorf("graph: corrupt delta encoding (baseN=%d addNodes=%d ops=%d)", baseN, addNodes, nops)
	}
	// Node insertions carry no payload, so they are set in one step: a
	// loop of AddNode calls would let a ten-byte blob spin for 2^40
	// iterations.
	d := NewDelta(int(baseN))
	d.addNodes = int(addNodes)
	d.ops = make([]deltaOp, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("graph: truncated delta encoding")
		}
		kind := deltaOpKind(data[0])
		data = data[1:]
		from, err := next()
		if err != nil {
			return nil, err
		}
		to, err := next()
		if err != nil {
			return nil, err
		}
		if from > maxDeltaDim || to > maxDeltaDim {
			return nil, fmt.Errorf("graph: corrupt delta encoding (edge %d,%d)", from, to)
		}
		switch kind {
		case opAddEdge:
			if len(data) < 8 {
				return nil, fmt.Errorf("graph: truncated delta encoding")
			}
			w := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: corrupt delta encoding (weight %v)", w)
			}
			if err := d.AddEdge(int(from), int(to), w); err != nil {
				return nil, err
			}
		case opRemoveEdge:
			if err := d.RemoveEdge(int(from), int(to)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("graph: corrupt delta encoding (op kind %d)", kind)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes after delta encoding", len(data))
	}
	return d, nil
}

// AddNode returns a copy of the graph with one new edgeless node
// appended, along with the new node's id.
//
//kdash:testonly
func (g *Graph) AddNode() (*Graph, int) {
	d := g.NewDelta()
	id := d.AddNode()
	g2, err := g.Apply(d)
	if err != nil {
		panic(err) // a pure node insertion fails only past MaxNodes
	}
	return g2, id
}
