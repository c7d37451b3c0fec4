package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdash/bench/internal/harness"
	"kdash/bench/internal/workload"
)

func TestBenchmarkJSONNamesWhatTheTracedRunPrints(t *testing.T) {
	root, err := harness.Root()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the traced run %+v", i, m, perLayer[i])
		}
	}
}

// exactCounts must repeat exactly for one seed: they are what a later
// change may cite as counts rather than timings.
var exactCounts = []string{
	"server.cache_hit_ratio", "server.cache_evictions", "shard.solves_per_query", "shard.shards_pruned_per_query",
	"shard.nodes_evaluated_per_query", "placement.calls_per_query", "wal.bytes_per_update",
}

func traceSmoke(t *testing.T) []map[string]float64 {
	t.Helper()
	var out bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "3"}, &out); code != 0 {
		t.Fatalf("trace exited %d\n%s", code, out.String())
	}
	var results []map[string]float64
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !r.Correct || len(r.Metrics) != len(perLayer) {
			t.Errorf("result %d: correct=%v with %d metrics, want %d", len(results), r.Correct, len(r.Metrics), len(perLayer))
		}
		m := map[string]float64{}
		for name, v := range r.Metrics {
			m[name] = v.Value
		}
		results = append(results, m)
	}
	if len(results) != len(harness.Specs) {
		t.Fatalf("%d result lines, want %d", len(results), len(harness.Specs))
	}
	return results
}

// TestSmoke traces all four workloads at smoke size, twice: each prints
// every per-layer metric, the layers every workload exercises read
// non-zero, the workload-specific ones read non-zero where they apply,
// the exact counts repeat, and the span files are written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the real binaries")
	}
	first, second := traceSmoke(t), traceSmoke(t)
	for i, spec := range harness.Specs {
		m := first[i]
		positive := []string{"shard.topk_us", "server.handler_topk_us", "client.http_floor_us", "rpc.ping_us", "wal.bytes_per_update", "core.topk_us"}
		switch {
		case spec.Cache > 0:
			positive = append(positive, "server.cache_hit_ratio")
		case spec.WAL:
			positive = append(positive, "server.compactions", "server.recover_ms", "client.update_ack_us_p50", "shard.solves_per_query")
		case spec.Workers > 0:
			positive = append(positive, "placement.calls_per_query", "placement.cluster_tax", "shard.solves_per_query")
		default:
			positive = append(positive, "shard.solves_per_query")
		}
		if spec.Cache > 0 {
			// The server's hit count over the traced pass is the pure
			// function of the request list that workload.LRUHits computes.
			plan := harness.NewPlan(spec, 3, harness.RefSeconds, true)
			list := plan.List()
			want := float64(workload.LRUHits(list[:2*plan.PerPass], spec.Cache)-workload.LRUHits(list[:plan.PerPass], spec.Cache)) / float64(plan.PerPass)
			if m["server.cache_hit_ratio"] != want {
				t.Errorf("%s: server.cache_hit_ratio = %v, the list predicts %v", spec.Name, m["server.cache_hit_ratio"], want)
			}
		}
		for _, name := range positive {
			if m[name] <= 0 {
				t.Errorf("%s: %s = %v", spec.Name, name, m[name])
			}
		}
		for _, name := range exactCounts {
			if m[name] != second[i][name] {
				t.Errorf("%s: %s = %v, then %v with the same seed", spec.Name, name, m[name], second[i][name])
			}
		}
	}
	root, _ := harness.Root()
	for _, s := range harness.Specs {
		if info, err := os.Stat(filepath.Join(root, "bench", "out", "spans-"+s.Name+".jsonl")); err != nil || info.Size() == 0 {
			t.Errorf("span file of %s: %v", s.Name, err)
		}
	}
}
