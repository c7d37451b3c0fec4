package server

import (
	"net/http"
	"path/filepath"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

// TestEpochSeededFromLoadedIndex pins the swap counter's continuity
// across persistence: a handler over an index saved at epoch 2 reports
// epoch 2, and the next update moves to 3 — no reset, no jump.
func TestEpochSeededFromLoadedIndex(t *testing.T) {
	g := testutil.Clustered(80, 3, 3)
	sx, err := shard.Build(g, shard.Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d := sx.Graph().NewDelta()
		if err := d.AddEdge(i, 40+i, 1); err != nil {
			t.Fatal(err)
		}
		if sx, _, err = sx.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := New(loaded)
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || string(body["epoch"]) != "2" {
		t.Fatalf("healthz epoch = %s, want 2 (%s)", body["epoch"], rec.Body.String())
	}
	urec := post(t, h, "/update", `{"addEdges":[{"from":5,"to":60,"weight":1}]}`)
	if urec.Code != http.StatusOK {
		t.Fatal(urec.Body.String())
	}
	if rec, body = get(t, h, "/healthz"); string(body["epoch"]) != "3" {
		t.Fatalf("post-update epoch = %s, want 3", body["epoch"])
	}
}
