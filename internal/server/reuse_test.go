package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

// TestUpdateReuseCounters: an update whose one edge crosses the cut
// rebuilds one shard from its previous epoch, and /statz and /metrics
// report the same reuse counts, which add up to that shard's 2n inverse
// columns.
func TestUpdateReuseCounters(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx)
	u, v := 0, 0
	for sx.HomeShard(v) == sx.HomeShard(u) || g.HasEdge(u, v) {
		v++
	}
	rec := post(t, h, "/update", fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d}]}`, u, v))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	srec, _ := get(t, h, "/statz")
	var statz struct {
		Updates map[string]int64 `json:"updates"`
		Index   struct {
			PerShard []struct {
				Nodes int64 `json:"nodes"`
			} `json:"perShard"`
		} `json:"index"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	up := statz.Updates
	// The rebuilt block has the shard's nodes plus its ghost sink.
	cols := 2 * (statz.Index.PerShard[sx.HomeShard(u)].Nodes + 1)
	if up["shardsRebuilt"] != 1 || up["communitiesReused"] != 1 || up["columnsReused"] == 0 || up["columnsReused"]+up["columnsSolved"] != cols {
		t.Fatalf("updates = %v, want one shard rebuilt from its communities with %d columns reused or solved", up, cols)
	}
	text := scrape(t, h)
	for name, key := range map[string]string{
		"kdash_update_communities_reused_total":     "communitiesReused",
		"kdash_update_inverse_columns_reused_total": "columnsReused",
		"kdash_update_inverse_columns_solved_total": "columnsSolved",
	} {
		if got, ok := metricValue(text, name); !ok || got != float64(up[key]) {
			t.Errorf("%s = %v (present %v), /statz %s = %d", name, got, ok, key, up[key])
		}
	}
}
