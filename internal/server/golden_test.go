package server

// Golden pins for the engine's share of the observability surfaces: the
// /statz "index" block and the engine series at the tail of /metrics,
// for a single-process sharded engine and for a loopback coordinator
// (whose block adds "cluster" and whose tail adds the per-worker
// series). The files were recorded before the engine stats became a
// typed struct, so any drift in key order, number formatting or series
// order fails here. Worker addresses and call latencies vary run to run
// and are masked; everything else is a pure function of the graph and
// the fixed query sequence. Regenerate with -update-golden only after a
// deliberate format change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/obs"
	"kdash/internal/placement"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the /statz and /metrics engine golden files")

// goldenQueries is the fixed request sequence run before each capture.
var goldenQueries = []string{
	"/topk?q=7&k=5",
	"/topk?q=0&k=3&exclude=1,2",
	"/topk?q=99&k=10",
	"/proximity?q=7&u=11",
}

// goldenMasks replace the run-dependent values: worker addresses and
// call latencies.
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"addr": "[^"]*"`), `"addr": "ADDR"`},
	{regexp.MustCompile(`"(meanMicros|p99Micros)": [-+0-9.eE]+`), `"$1": TIME`},
	{regexp.MustCompile(`(?m)^(kdash_worker_call_(mean|p99)_micros\{[^}]*\}) .*$`), `$1 TIME`},
}

// engineGolden runs the fixed queries, then returns the /statz index
// block (indented) and the /metrics tail from the first engine series
// on, both masked.
func engineGolden(t *testing.T, h *Handler) (statz, metrics string) {
	t.Helper()
	for _, url := range goldenQueries {
		if rec, _ := get(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", url, rec.Code, rec.Body.String())
		}
	}
	_, doc := get(t, h, "/statz")
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc["index"], "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	text := scrape(t, h)
	at := strings.Index(text, "# HELP kdash_index_shards ")
	if at < 0 {
		t.Fatalf("/metrics has no engine series:\n%s", text)
	}
	statz, metrics = buf.String(), text[at:]
	for _, m := range goldenMasks {
		statz = m.re.ReplaceAllString(statz, m.with)
		metrics = m.re.ReplaceAllString(metrics, m.with)
	}
	return statz, metrics
}

// checkGolden compares got with testdata/name, rewriting the file under
// -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestShardedStatzMetricsGolden pins a 4-shard engine's index block and
// engine series.
func TestShardedStatzMetricsGolden(t *testing.T) {
	h, _ := shardedHandler(t)
	statz, metrics := engineGolden(t, h)
	checkGolden(t, "statz_index_sharded.golden", statz)
	checkGolden(t, "metrics_engine_sharded.golden", metrics)
}

// TestCoordinatorStatzMetricsGolden pins a two-worker coordinator's
// index block, cluster block included, and its engine and worker series.
func TestCoordinatorStatzMetricsGolden(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
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
		defer ln.Close()
		addrs[w] = ln.Addr().String()
		go placement.ServeWorker(ln, wsx) //nolint:errcheck // closes with the listener
	}
	co, err := placement.NewCoordinator(dir, addrs, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	statz, metrics := engineGolden(t, New(co))
	checkGolden(t, "statz_index_coordinator.golden", statz)
	checkGolden(t, "metrics_engine_coordinator.golden", metrics)
}

// TestMemoryBlockGolden pins the memory block's schema on both
// surfaces: the /statz "memory" keys and the /metrics series it
// projects onto (names, help, type and order), every value zeroed so
// the pin holds on any platform and heap.
func TestMemoryBlockGolden(t *testing.T) {
	mem := memoryStatz(0, 0)
	keys := make([]string, 0, len(mem))
	for k := range mem {
		keys = append(keys, k)
		mem[k] = 0
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("# /statz memory keys\n")
	for _, k := range keys {
		buf.WriteString(k + "\n")
	}
	buf.WriteString("# /metrics memory series\n")
	pw := obs.NewPromWriter(&buf)
	writeMemoryMetrics(pw, mem)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "memory_block.golden", buf.String())
}
