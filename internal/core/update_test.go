package core

import (
	"bytes"
	"math"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/testutil"
)

func TestRebuildEmptyDeltaIsBitIdentical(t *testing.T) {
	g := testutil.PowerLaw(120, 3)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := ix.Rebuild(g.NewDelta())
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Epoch() != 1 || ix.Epoch() != 0 {
		t.Fatalf("epochs: old %d new %d", ix.Epoch(), ix2.Epoch())
	}
	for q := 0; q < g.N(); q += 17 {
		want, _, err := ix.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix2.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q=%d: %d vs %d results", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%d i=%d: %v vs %v", q, i, got[i], want[i])
			}
		}
	}
}

func TestRebuildTracksDelta(t *testing.T) {
	g := testutil.Clustered(90, 3, 5)
	ix, err := BuildIndex(g, BuildOptions{Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := g.NewDelta()
	hub := d.AddNode()
	for u := 0; u < 6; u++ {
		if err := d.AddEdge(hub, u*7, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(u*7, hub, 2); err != nil {
			t.Fatal(err)
		}
	}
	ix2, err := ix.Rebuild(d)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.N() != 91 || ix2.Epoch() != 1 {
		t.Fatalf("rebuilt n=%d epoch=%d, want 91 and 1", ix2.N(), ix2.Epoch())
	}
	// The rebuilt index answers exactly like the iterative oracle on the
	// updated graph.
	g2 := ix2.Graph()
	for _, q := range []int{hub, 0, 44} {
		got, _, err := ix2.TopK(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rwr.TopK(g2.ColumnNormalized(), q, 6, ix2.Restart())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("q=%d i=%d: %v vs oracle %v", q, i, got[i], want[i])
			}
		}
	}
	// The old epoch still answers on the old graph shape.
	if _, _, err := ix.TopK(90, 3); err == nil {
		t.Error("old epoch accepted a node it does not have")
	}
}

func TestLoadedIndexIsNotUpdatable(t *testing.T) {
	g := testutil.ErdosRenyi(30, 120, 2)
	ix, err := BuildIndex(g, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph() != nil {
		t.Error("loaded index claims a source graph")
	}
	if _, err := loaded.Rebuild(g.NewDelta()); err == nil {
		t.Error("loaded index accepted Rebuild")
	}
}
