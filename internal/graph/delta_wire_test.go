package graph

import (
	"bytes"
	"math"
	"testing"
)

func TestDeltaBinaryRoundTrip(t *testing.T) {
	d := NewDelta(10)
	if err := d.AddEdge(0, 9, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	id := d.AddNode()
	if id != 10 {
		t.Fatalf("AddNode id = %d, want 10", id)
	}
	if err := d.AddEdge(id, 0, 0.125); err != nil {
		t.Fatal(err)
	}

	enc := d.AppendBinary(nil)
	got, err := UnmarshalDelta(enc)
	if err != nil {
		t.Fatalf("UnmarshalDelta: %v", err)
	}
	if got.BaseN() != d.BaseN() || got.AddedNodes() != d.AddedNodes() || got.Len() != d.Len() {
		t.Fatalf("decoded shape = (%d,%d,%d), want (%d,%d,%d)",
			got.BaseN(), got.AddedNodes(), got.Len(), d.BaseN(), d.AddedNodes(), d.Len())
	}
	for i, op := range d.ops {
		if got.ops[i] != op {
			t.Fatalf("op %d = %+v, want %+v", i, got.ops[i], op)
		}
	}
	// Deterministic: re-encoding either side yields identical bytes.
	if !bytes.Equal(enc, got.AppendBinary(nil)) {
		t.Fatal("re-encoding decoded delta changed bytes")
	}
}

func TestDeltaBinaryRoundTripEmpty(t *testing.T) {
	d := NewDelta(0)
	got, err := UnmarshalDelta(d.AppendBinary(nil))
	if err != nil {
		t.Fatalf("UnmarshalDelta: %v", err)
	}
	if got.Len() != 0 || got.AddedNodes() != 0 || got.BaseN() != 0 {
		t.Fatalf("decoded empty delta = %+v", got)
	}
}

func TestUnmarshalDeltaRejectsCorruption(t *testing.T) {
	d := NewDelta(4)
	if err := d.AddEdge(1, 2, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	valid := d.AppendBinary(nil)

	// Every strict prefix must be rejected, never misparsed.
	for i := 0; i < len(valid); i++ {
		if _, err := UnmarshalDelta(valid[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(valid))
		}
	}
	// Trailing garbage must be rejected.
	if _, err := UnmarshalDelta(append(append([]byte(nil), valid...), 0xFF)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// Wrong version byte must be rejected.
	bad := append([]byte(nil), valid...)
	bad[0] = deltaWireVersion + 1
	if _, err := UnmarshalDelta(bad); err == nil {
		t.Fatal("bad version decoded without error")
	}
	// A NaN weight must be rejected even though the framing is intact.
	nan := NewDelta(2)
	if err := nan.AddEdge(0, 1, 1.0); err != nil {
		t.Fatal(err)
	}
	nan.ops[0].w = math.NaN()
	if _, err := UnmarshalDelta(nan.AppendBinary(nil)); err == nil {
		t.Fatal("NaN weight decoded without error")
	}
}

func TestDeltaExtend(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})

	// Two batches recorded one after another...
	d1 := g.NewDelta()
	if err := d1.AddEdge(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	n1 := d1.AddNode()
	d2 := NewDelta(d1.BaseN() + d1.AddedNodes())
	if err := d2.AddEdge(n1, 0, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := d2.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}

	// ...applied sequentially...
	g1, err := g.Apply(d1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g1.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}

	// ...must match the merged batch applied once.
	if err := d1.Extend(d2); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	merged, err := g.Apply(d1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(seq, merged) {
		t.Fatal("merged delta disagrees with sequential application")
	}
}

func TestDeltaExtendRejectsMismatch(t *testing.T) {
	d := NewDelta(5)
	d.AddNode()
	wrong := NewDelta(5) // must be 6 to chain after d
	if err := d.Extend(wrong); err == nil {
		t.Fatal("Extend accepted mismatched base node count")
	}
}

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}
