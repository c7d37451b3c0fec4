package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kdash/internal/gen"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

func shardedHandler(t *testing.T) (*Handler, *shard.ShardedIndex) {
	t.Helper()
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(sx), sx
}

// TestShardedEngineEndpoints checks a ShardedIndex serves the same
// endpoint contracts as the monolithic index and agrees with it.
func TestShardedEngineEndpoints(t *testing.T) {
	hs, sx := shardedHandler(t)
	hm, ix := testHandler(t) // same graph, same seed

	for _, url := range []string{"/topk?q=7&k=5", "/topk?q=0&k=3&exclude=1,2"} {
		recS, _ := get(t, hs, url)
		recM, _ := get(t, hm, url)
		if recS.Code != http.StatusOK || recM.Code != http.StatusOK {
			t.Fatalf("%s: sharded %d, monolithic %d", url, recS.Code, recM.Code)
		}
		var respS, respM struct {
			Results []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(recS.Body.Bytes(), &respS); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(recM.Body.Bytes(), &respM); err != nil {
			t.Fatal(err)
		}
		if len(respS.Results) != len(respM.Results) {
			t.Fatalf("%s: %d vs %d results", url, len(respS.Results), len(respM.Results))
		}
		for i := range respS.Results {
			if respS.Results[i].Node != respM.Results[i].Node ||
				math.Abs(respS.Results[i].Score-respM.Results[i].Score) > 1e-9 {
				t.Errorf("%s result %d: sharded %+v, monolithic %+v", url, i, respS.Results[i], respM.Results[i])
			}
		}
	}

	// /proximity must agree too.
	p1, err := sx.Proximity(7, 11)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ix.Proximity(7, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-9 {
		t.Errorf("proximity: sharded %g, monolithic %g", p1, p2)
	}
}

// TestStatzEndpoint checks counters accumulate and the sharded engine's
// per-shard observability comes through.
func TestStatzEndpoint(t *testing.T) {
	h, sx := shardedHandler(t)
	for i := 0; i < 3; i++ {
		get(t, h, "/topk?q=7&k=5")
	}
	get(t, h, "/proximity?q=1&u=2")
	get(t, h, "/topk?q=99999&k=5") // reaches the engine, fails, counts as an error

	rec, _ := get(t, h, "/statz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Queries struct {
			TopK      int64 `json:"topk"`
			Proximity int64 `json:"proximity"`
			Errors    int64 `json:"errors"`
		} `json:"queries"`
		Work struct {
			Visited int64 `json:"visited"`
		} `json:"work"`
		Index struct {
			Kind     string `json:"kind"`
			Shards   int    `json:"shards"`
			PerShard []struct {
				Nodes int `json:"nodes"`
			} `json:"perShard"`
		} `json:"index"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /statz JSON: %v (%s)", err, rec.Body.String())
	}
	if resp.Queries.TopK != 4 {
		t.Errorf("topk counter = %d, want 4", resp.Queries.TopK)
	}
	if resp.Queries.Errors != 1 {
		t.Errorf("error counter = %d, want 1", resp.Queries.Errors)
	}
	if resp.Queries.Proximity != 1 {
		t.Errorf("proximity counter = %d, want 1", resp.Queries.Proximity)
	}
	if resp.Work.Visited == 0 {
		t.Error("visited counter never advanced")
	}
	if resp.Index.Kind != "sharded" || resp.Index.Shards != sx.Shards() {
		t.Errorf("index stats = %+v, want sharded/%d", resp.Index, sx.Shards())
	}
	total := 0
	for _, s := range resp.Index.PerShard {
		total += s.Nodes
	}
	if total != sx.N() {
		t.Errorf("per-shard sizes sum to %d, want %d", total, sx.N())
	}

	// The monolithic engine reports its own kind.
	hm, _ := testHandler(t)
	recM, _ := get(t, hm, "/statz")
	var respM struct {
		Index struct {
			Kind string `json:"kind"`
		} `json:"index"`
	}
	if err := json.Unmarshal(recM.Body.Bytes(), &respM); err != nil {
		t.Fatal(err)
	}
	if respM.Index.Kind != "monolithic" {
		t.Errorf("monolithic /statz kind = %q", respM.Index.Kind)
	}
}

// TestStatzLoadAndMemoryFields checks the operations fields added for
// the mmap load path: the WithOpenInfo block, the resident-set gauge
// and the sharded engine's opened-shard accounting.
func TestStatzLoadAndMemoryFields(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx, WithOpenInfo(1500*time.Millisecond, "mmap"))
	get(t, h, "/topk?q=7&k=5")
	rec, _ := get(t, h, "/statz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Memory memoryBlock `json:"memory"`
		Load   struct {
			OpenSeconds float64 `json:"openSeconds"`
			Mode        string  `json:"mode"`
		} `json:"load"`
		Index struct {
			Shards       int `json:"shards"`
			ShardsOpened int `json:"shardsOpened"`
			PerShard     []struct {
				Opened     bool `json:"opened"`
				NNZInverse int  `json:"nnzInverse"`
			} `json:"perShard"`
		} `json:"index"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /statz JSON: %v (%s)", err, rec.Body.String())
	}
	if resp.Load.Mode != "mmap" || resp.Load.OpenSeconds != 1.5 {
		t.Errorf("load block = %+v, want mode=mmap openSeconds=1.5", resp.Load)
	}
	if resp.Memory.RSSBytes < 0 {
		t.Errorf("rssBytes = %d, want >= 0", resp.Memory.RSSBytes)
	}
	// The built shards are on the Go heap, and the heap gauges are live.
	if m := resp.Memory; m.FactorHeapBytes <= 0 || m.GoHeapInuseBytes <= 0 || m.GoHeapGoalBytes <= 0 || m.GCCycles < 0 {
		t.Errorf("memory block %+v: want heap factors, heap in use and a heap goal", m)
	}
	// A built (non-lazy) index reports every shard open with real nnz.
	if resp.Index.ShardsOpened != resp.Index.Shards {
		t.Errorf("built index reports %d/%d shards opened", resp.Index.ShardsOpened, resp.Index.Shards)
	}
	for i, s := range resp.Index.PerShard {
		if !s.Opened || s.NNZInverse == 0 {
			t.Errorf("shard %d: opened=%t nnz=%d, want opened with nonzero nnz", i, s.Opened, s.NNZInverse)
		}
	}
}

// memoryBlock is /statz's memory block.
type memoryBlock struct {
	RSSBytes               int64 `json:"rssBytes"`
	FactorHeapBytes        int64 `json:"factorHeapBytes"`
	FactorOffHeapBytes     int64 `json:"factorOffHeapBytes"`
	FactorMappedBytes      int64 `json:"factorMappedBytes"`
	ContainersOpened       int64 `json:"containersOpened"`
	ContainersReleased     int64 `json:"containersReleased"`
	ContainerReleasedBytes int64 `json:"containerReleasedBytes"`
	GoHeapInuseBytes       int64 `json:"goHeapInuseBytes"`
	GoHeapGoalBytes        int64 `json:"goHeapGoalBytes"`
	GCCycles               int64 `json:"gcCycles"`
}

// TestStatzMemoryBlockTracksLoadedShards serves a directory loaded in
// copy mode: its shard files must show up as off-heap factor bytes and
// opened containers in /statz, and /metrics must carry the same block.
func TestStatzMemoryBlockTracksLoadedShards(t *testing.T) {
	if !mmapio.MmapSupported() || !mmapio.CanZeroCopy() {
		t.Skip("copy-mode loads stay on the Go heap on this platform")
	}
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	built, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	var files int64
	for si := 0; si < built.Shards(); si++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d.idx", si)))
		if err != nil {
			t.Fatal(err)
		}
		files += fi.Size()
	}
	statz := func(h *Handler) memoryBlock {
		var resp struct {
			Memory memoryBlock `json:"memory"`
		}
		rec, _ := get(t, h, "/statz")
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad /statz JSON: %v", err)
		}
		return resp.Memory
	}
	h := New(built)
	before := statz(h)
	sx, err := shard.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	h = New(sx)
	after := statz(h)
	if got := after.ContainersOpened - before.ContainersOpened; got != int64(built.Shards()) {
		t.Errorf("containersOpened rose by %d, want %d", got, built.Shards())
	}
	if after.FactorOffHeapBytes < files {
		t.Errorf("factorOffHeapBytes = %d, want at least the %d bytes of shard files", after.FactorOffHeapBytes, files)
	}
	text := scrape(t, h)
	if v, ok := metricValue(text, "kdash_index_containers_opened_total"); !ok || int64(v) != after.ContainersOpened {
		t.Errorf("kdash_index_containers_opened_total = %v (present %v), statz says %d", v, ok, after.ContainersOpened)
	}
	if v, ok := metricValue(text, `kdash_index_factor_bytes{backing="offheap"}`); !ok || int64(v) < files {
		t.Errorf(`kdash_index_factor_bytes{backing="offheap"} = %v (present %v), want at least %d`, v, ok, files)
	}
	for _, name := range []string{`kdash_index_factor_bytes{backing="heap"}`, `kdash_index_factor_bytes{backing="mapped"}`,
		"kdash_index_containers_released_total", "kdash_index_container_released_bytes_total",
		"kdash_go_heap_inuse_bytes", "kdash_go_heap_goal_bytes", "kdash_go_gc_cycles_total", "kdash_process_resident_bytes"} {
		if _, ok := metricValue(text, name); !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}
