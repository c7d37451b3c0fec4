package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
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

// TestShardedEngineEndpoints checks a four-shard engine serves the same
// endpoint contracts as a one-shard engine and agrees with it.
func TestShardedEngineEndpoints(t *testing.T) {
	hs, sx := shardedHandler(t)
	hm, ix := testHandler(t) // same graph, same seed, one shard

	for _, url := range []string{"/topk?q=7&k=5", "/topk?q=0&k=3&exclude=1,2"} {
		recS, _ := get(t, hs, url)
		recM, _ := get(t, hm, url)
		if recS.Code != http.StatusOK || recM.Code != http.StatusOK {
			t.Fatalf("%s: four shards %d, one shard %d", url, recS.Code, recM.Code)
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
				t.Errorf("%s result %d: four shards %+v, one shard %+v", url, i, respS.Results[i], respM.Results[i])
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
		t.Errorf("proximity: four shards %g, one shard %g", p1, p2)
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
}

// TestStatzLoadAndMemoryFields checks the load and memory operations
// fields: the WithOpenInfo block, the resident-set gauge and the sharded
// engine's opened-shard accounting.
func TestStatzLoadAndMemoryFields(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx, WithOpenInfo(1500*time.Millisecond, "parse"))
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
	if resp.Load.Mode != "parse" || resp.Load.OpenSeconds != 1.5 {
		t.Errorf("load block = %+v, want mode=parse openSeconds=1.5", resp.Load)
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
	GraphOffHeapBytes      int64 `json:"graphOffHeapBytes"`
	GraphHeapBytes         int64 `json:"graphHeapBytes"`
	QueryScratchBytes      int64 `json:"queryScratchBytes"`
	ContainersOpened       int64 `json:"containersOpened"`
	ContainersReleased     int64 `json:"containersReleased"`
	ContainerReleasedBytes int64 `json:"containerReleasedBytes"`
	GoHeapInuseBytes       int64 `json:"goHeapInuseBytes"`
	GoHeapGoalBytes        int64 `json:"goHeapGoalBytes"`
	GCCycles               int64 `json:"gcCycles"`
}

// TestStatzMemoryBlockTracksLoadedShards serves a loaded directory: its
// shard files must show up as off-heap factor bytes and opened
// containers in /statz, its graph snapshot as graphOffHeapBytes (and
// graphHeapBytes 0 until something derives its in-rows, which
// graphHeapBytes then counts) until an update replaces it with a
// snapshot on the Go heap, whose out-rows graphHeapBytes then counts; a
// query's pooled scratch shows as queryScratchBytes; and /metrics must
// carry the same block.
func TestStatzMemoryBlockTracksLoadedShards(t *testing.T) {
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
	probe, err := mmapio.Open(filepath.Join(dir, "shard-0000.idx"))
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	if !probe.OffHeap() {
		t.Skip("loads stay on the Go heap on this platform")
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
	sx, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h = New(sx)
	after := statz(h)
	// The shard files, the graph snapshot and the partition container,
	// which the open reads and releases.
	if got := after.ContainersOpened - before.ContainersOpened; got != int64(built.Shards()+2) {
		t.Errorf("containersOpened rose by %d, want %d", got, built.Shards()+2)
	}
	gi, err := os.Stat(filepath.Join(dir, "graph.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if after.GraphOffHeapBytes != gi.Size() {
		t.Errorf("graphOffHeapBytes = %d, want graph.idx's %d bytes", after.GraphOffHeapBytes, gi.Size())
	}
	if after.GraphHeapBytes != 0 {
		t.Errorf("graphHeapBytes = %d before an update, want 0", after.GraphHeapBytes)
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
	if v, ok := metricValue(text, "kdash_index_graph_offheap_bytes"); !ok || int64(v) != gi.Size() {
		t.Errorf("kdash_index_graph_offheap_bytes = %v (present %v), want %d", v, ok, gi.Size())
	}
	// A query pools its shards' scratch: an L^-1 workspace per solve and
	// a residual per touched shard, 8 bytes a row.
	if _, _, err := sx.TopK(0, 5); err != nil {
		t.Fatal(err)
	}
	// The account is process-wide and other tests' parts may be
	// collected meanwhile, so only this index's share, held while sx
	// lives, is certain.
	if got := statz(h).QueryScratchBytes; got <= 0 {
		t.Errorf("queryScratchBytes = %d after a query, want the pooled vectors", got)
	}
	if v, ok := metricValue(scrape(t, h), "kdash_query_scratch_bytes"); !ok || v <= 0 {
		t.Errorf("kdash_query_scratch_bytes = %v (present %v), want the pooled vectors", v, ok)
	}
	// In-rows derived on the sealed snapshot live on the heap: an int64
	// pointer array of n+1, and per edge an int32 id and a float64
	// weight.
	sealed := sx.Graph()
	sealed.InDegree(0)
	if want := int64(8*(sealed.N()+1) + 12*sealed.M()); statz(h).GraphHeapBytes != want {
		t.Errorf("graphHeapBytes = %d with derived in-rows, want their %d bytes", statz(h).GraphHeapBytes, want)
	}
	// An update's successor ranks over a graph on the Go heap.
	next, _, err := sx.Apply(sx.Graph().NewDelta())
	if err != nil {
		t.Fatal(err)
	}
	updated := statz(New(next))
	if updated.GraphOffHeapBytes != 0 {
		t.Errorf("after an update, graphOffHeapBytes = %d, want 0", updated.GraphOffHeapBytes)
	}
	// The out-rows alone: an int64 pointer array of n+1, and per edge an
	// int32 id and a float64 weight.
	ng := next.Graph()
	if want := int64(8*(ng.N()+1) + 12*ng.M()); updated.GraphHeapBytes != want {
		t.Errorf("after an update, graphHeapBytes = %d, want the snapshot's %d array bytes", updated.GraphHeapBytes, want)
	}
	if v, ok := metricValue(scrape(t, New(next)), "kdash_index_graph_heap_bytes"); !ok || int64(v) != updated.GraphHeapBytes {
		t.Errorf("kdash_index_graph_heap_bytes = %v (present %v), statz says %d", v, ok, updated.GraphHeapBytes)
	}
	if _, ok := metricValue(text, `kdash_index_factor_bytes{backing="mapped"}`); ok {
		t.Error(`/metrics still carries the retired kdash_index_factor_bytes{backing="mapped"}`)
	}
	for _, name := range []string{`kdash_index_factor_bytes{backing="heap"}`,
		"kdash_index_containers_released_total", "kdash_index_container_released_bytes_total",
		"kdash_go_heap_inuse_bytes", "kdash_go_heap_goal_bytes", "kdash_go_gc_cycles_total", "kdash_process_resident_bytes"} {
		if _, ok := metricValue(text, name); !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestRuntimeBlock: /metrics carries the scheduler latency's p50 and
// p99 and the total GC pause time, /statz the same in its "runtime"
// block, and a forced collection shows as pause time.
func TestRuntimeBlock(t *testing.T) {
	h, _ := shardedHandler(t)
	runtime.GC()
	text := scrape(t, h)
	p50, ok50 := metricValue(text, `kdash_go_sched_latency_seconds{quantile="0.5"}`)
	p99, ok99 := metricValue(text, `kdash_go_sched_latency_seconds{quantile="0.99"}`)
	pause, okPause := metricValue(text, "kdash_go_gc_pause_seconds_total")
	if !ok50 || !ok99 || !okPause {
		t.Fatalf("/metrics lacks the runtime series:\n%s", text)
	}
	if p50 < 0 || p99 < p50 || pause <= 0 {
		t.Errorf("sched p50 %g, p99 %g, GC pause %g s: want 0 <= p50 <= p99 and pause time after a GC", p50, p99, pause)
	}
	_, doc := get(t, h, "/statz")
	var rt map[string]float64
	if err := json.Unmarshal(doc["runtime"], &rt); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schedLatencyP50Micros", "schedLatencyP99Micros", "gcPauseMicros"} {
		if _, ok := rt[key]; !ok {
			t.Errorf("/statz runtime block lacks %q: %v", key, rt)
		}
	}
	if rt["gcPauseMicros"] <= 0 {
		t.Errorf("/statz runtime gcPauseMicros = %g after a GC", rt["gcPauseMicros"])
	}
}

// TestHistQuantile: the quantile is the upper bound of the bucket it
// falls in, the lower bound in the unbounded last bucket, 0 when empty.
func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 50, 49, 1},
		Buckets: []float64{math.Inf(-1), 1, 2, 4, math.Inf(1)},
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 2}, {0.99, 4}, {1, 4}} {
		if got := histQuantile(h, c.q); got != c.want {
			t.Errorf("q%g = %g, want %g", c.q, got, c.want)
		}
	}
	if got := histQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty histogram: %g, want 0", got)
	}
}
