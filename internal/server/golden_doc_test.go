package server

// Golden pins for the whole /statz and /metrics documents of three
// deployments — in process with a cache, durable (WAL) mode after one
// /update, and a coordinator over two in-package workers — after one
// fixed request sequence. Every block and series both documents carry
// is pinned: names, labels, HELP, TYPE, order and value. Values that
// depend on the run (clocks, latencies, the process's memory and
// scheduler, worker addresses) are masked; the rest is a pure function
// of the graph and the sequence. Regenerate with -update-golden only
// after a deliberate format change.

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"kdash/internal/gen"
	"kdash/internal/placement"
	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/wal"
)

// docRequests is the fixed sequence each deployment serves before its
// documents are captured: every query endpoint, a repeat (a cache hit
// where there is a cache) and a refused query.
var docRequests = []struct{ method, url, body string }{
	{"GET", "/topk?q=7&k=5", ""},
	{"GET", "/topk?q=0&k=3&exclude=1,2", ""},
	{"GET", "/topk?q=99&k=10", ""},
	{"GET", "/topk?q=7&k=5", ""},
	{"GET", "/topk?q=7&k=0", ""},
	{"GET", "/proximity?q=7&u=11", ""},
	{"POST", "/personalized", `{"seeds":{"7":1,"44":3},"k":3}`},
	{"POST", "/topk/batch", `{"queries":[{"q":7,"k":3},{"q":9,"k":3,"exclude":[9]}]}`},
	{"GET", "/healthz", ""},
}

// docMasks replace what a run decides beside goldenMasks: clocks and
// latencies, the process-wide memory and runtime figures, and every
// histogram's buckets and sum (its count stays pinned).
var docMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(uptimeSeconds|p50Micros|p999Micros|[a-zA-Z]+Ns|schedLatencyP50Micros|schedLatencyP99Micros|gcPauseMicros)": [-+0-9.eE]+`), `"$1": TIME`},
	{regexp.MustCompile(`"(rssBytes|factorHeapBytes|factorOffHeapBytes|graphOffHeapBytes|graphHeapBytes|queryScratchBytes|containersOpened|containersReleased|containerReleasedBytes|goHeapInuseBytes|goHeapGoalBytes|gcCycles)": [-+0-9.eE]+`), `"$1": MEM`},
	{regexp.MustCompile(`(?m)^(kdash_[a-z_]+_seconds_(bucket|sum)(\{[^}]*\})?) .*$`), `$1 TIME`},
	{regexp.MustCompile(`(?m)^((kdash_update_stage_seconds_total|kdash_go_sched_latency_seconds|kdash_go_gc_pause_seconds_total)(\{[^}]*\})?) .*$`), `$1 TIME`},
	{regexp.MustCompile(`(?m)^((kdash_process_resident_bytes|kdash_index_factor_bytes|kdash_index_graph_offheap_bytes|kdash_index_graph_heap_bytes|kdash_query_scratch_bytes|kdash_index_containers_opened_total|kdash_index_containers_released_total|kdash_index_container_released_bytes_total|kdash_go_heap_inuse_bytes|kdash_go_heap_goal_bytes|kdash_go_gc_cycles_total)(\{[^}]*\})?) .*$`), `$1 MEM`},
}

// documentsGolden serves docRequests, then captures /statz (indented)
// and /metrics, both masked.
func documentsGolden(t *testing.T, h *Handler) (statz, metrics string) {
	t.Helper()
	for _, r := range docRequests {
		var rec *httptest.ResponseRecorder
		if r.method == "POST" {
			rec = post(t, h, r.url, r.body)
		} else {
			rec, _ = get(t, h, r.url)
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%s)", r.method, r.url, rec.Code, rec.Body.String())
		}
	}
	rec, _ := get(t, h, "/statz")
	var buf bytes.Buffer
	if err := json.Indent(&buf, rec.Body.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	statz, metrics = buf.String(), scrape(t, h)
	for _, m := range goldenMasks {
		statz = m.re.ReplaceAllString(statz, m.with)
		metrics = m.re.ReplaceAllString(metrics, m.with)
	}
	for _, m := range docMasks {
		statz = m.re.ReplaceAllString(statz, m.with)
		metrics = m.re.ReplaceAllString(metrics, m.with)
	}
	return statz, metrics
}

// goldenEngine builds the four-shard engine every deployment serves.
func goldenEngine(t *testing.T) *shard.ShardedIndex {
	t.Helper()
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// TestDocumentsGoldenCached pins both documents of an in-process engine
// with a cache and a load block.
func TestDocumentsGoldenCached(t *testing.T) {
	h := New(goldenEngine(t), WithCache(64), WithOpenInfo(1500*time.Millisecond, "parse"))
	statz, metrics := documentsGolden(t, h)
	checkGolden(t, "statz_cached.golden", statz)
	checkGolden(t, "metrics_cached.golden", metrics)
}

// TestDocumentsGoldenDurable pins both documents of durable mode after
// one acked /update, waited out so no query meets the barrier.
func TestDocumentsGoldenDurable(t *testing.T) {
	h := durableHandler(t, goldenEngine(t), WALConfig{Dir: t.TempDir(), Sync: wal.SyncAlways})
	seq := postUpdateWAL(t, h, &updateRequest{AddEdges: []edgeJSON{{From: 1, To: 2, Weight: 1.5}}})
	awaitApplied(t, h, seq)
	statz, metrics := documentsGolden(t, h)
	checkGolden(t, "statz_durable.golden", statz)
	checkGolden(t, "metrics_durable.golden", metrics)
}

// TestDocumentsGoldenCoordinator pins both documents of a coordinator
// over two in-package workers.
func TestDocumentsGoldenCoordinator(t *testing.T) {
	dir := t.TempDir()
	if err := goldenEngine(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for w := range addrs {
		wsx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[w] = ln.Addr().String()
		go placement.ServeWorker(ln, wsx) //nolint:errcheck // closes with the listener
	}
	co, err := placement.NewCoordinator(dir, addrs, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	statz, metrics := documentsGolden(t, New(co))
	if !strings.Contains(statz, `"cluster"`) {
		t.Fatalf("coordinator /statz has no cluster block:\n%s", statz)
	}
	checkGolden(t, "statz_coordinator.golden", statz)
	checkGolden(t, "metrics_coordinator.golden", metrics)
}
