package graph

// Native fuzz target for the delta wire decoder, the decode path a
// worker runs on every Prepare and the WAL runs on every replayed
// record: any byte string must decode to an error or to a delta the
// recording API would have accepted — never panic, never loop or
// allocate in proportion to a count the input merely claims.
//
// Run with:
//
//	go test -fuzz=FuzzUnmarshalDelta ./internal/graph

import (
	"bytes"
	"testing"
)

func FuzzUnmarshalDelta(f *testing.F) {
	d := NewDelta(5)
	id := d.AddNode()
	for _, e := range [][2]int{{0, 1}, {id, 2}, {4, id}} {
		if err := d.AddEdge(e[0], e[1], 1.5); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.RemoveEdge(3, 4); err != nil {
		f.Fatal(err)
	}
	valid := d.AppendBinary(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(NewDelta(0).AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{deltaWireVersion, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 0}) // 2^40-1 node insertions claimed in nine bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		// Accepted: every op is in range with a valid weight, and the
		// canonical re-encoding decodes to the same delta.
		n := d.BaseN() + d.AddedNodes()
		for _, op := range d.ops {
			if op.from < 0 || op.from >= n || op.to < 0 || op.to >= n {
				t.Fatalf("accepted op %+v outside [0,%d)", op, n)
			}
			if op.kind == opAddEdge && !(op.w > 0) {
				t.Fatalf("accepted op %+v with weight %v", op, op.w)
			}
		}
		enc := d.AppendBinary(nil)
		again, err := UnmarshalDelta(enc)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
