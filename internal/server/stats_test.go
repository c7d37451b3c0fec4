package server

// Tests of the statistics declaration table itself.

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"kdash/internal/obs"
)

// memoryStatz is the /statz memory block as the declarations render it,
// for TestMemoryBlockGolden.
func memoryStatz(graphSealed, graphHeap int64) map[string]int64 {
	r := &reading{h: &Handler{}}
	r.mem, _ = readProcess(graphSealed, graphHeap)
	mem := map[string]int64{}
	for _, s := range memoryStats() {
		mem[s.key] = int64(s.value(r))
	}
	return mem
}

// writeMemoryMetrics writes the memory block's declared series with the
// values mem gives their keys, for TestMemoryBlockGolden.
func writeMemoryMetrics(pw *obs.PromWriter, mem map[string]int64) {
	stats := memoryStats()
	for i := range stats {
		key := stats[i].key
		stats[i].v = func(*reading) float64 { return float64(mem[key]) }
	}
	writeMetrics(pw, stats, &reading{h: &Handler{}})
}

// memoryStats are the declarations of the memory block.
func memoryStats() []stat {
	var mem []stat
	for _, s := range (&Handler{}).declareStats() {
		if s.block == "memory" {
			mem = append(mem, s)
		}
	}
	return mem
}

// TestLoopRefusedRequestsCounted sends TestLoopMatchesNetHTTP's
// malformed requests through the connection loop: each is counted
// under the refused pseudo-endpoint with the status it was answered
// with, and in /statz queries.refused; a client that connects and
// leaves is not.
func TestLoopRefusedRequestsCounted(t *testing.T) {
	h, _ := testHandler(t)
	_, addr := serveLoop(t, h)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	want := map[string]string{
		"malformed request line":        "400",
		"missing Host":                  "400",
		"oversized headers":             "431",
		"HTTP/2.0 request line":         "505",
		"unsupported transfer encoding": "501",
		"other expectation":             "417",
	}
	for _, tc := range conformanceCases {
		if code, ok := want[tc.name]; ok {
			if got, _ := exchange(t, addr, tc.raw, requestMethods(tc.raw), tc.n); len(got) != 1 || !strings.HasPrefix(got[0].Status, code+" ") {
				t.Fatalf("%s: answers %+v, want one %s", tc.name, got, code)
			}
		}
	}
	text := scrape(t, h)
	for code, n := range map[string]float64{"400": 2, "417": 1, "431": 1, "501": 1, "505": 1} {
		series := `kdash_http_requests_total{endpoint="refused",code="` + code + `"}`
		if v, ok := metricValue(text, series); !ok || v != n {
			t.Errorf("%s = %v (present %t), want %v", series, v, ok, n)
		}
	}
	_, doc := get(t, h, "/statz")
	var queries map[string]int64
	if err := json.Unmarshal(doc["queries"], &queries); err != nil {
		t.Fatal(err)
	}
	if queries["refused"] != 6 {
		t.Errorf("/statz queries.refused = %d, want 6", queries["refused"])
	}
}

// TestObservabilityDocCoversStats holds docs/OBSERVABILITY.md to the
// declarations: every declared series and every /statz key a durable,
// cached server reports is named there, and every kdash_* series the
// page names is declared (a histogram's _bucket, _sum and _count
// included).
func TestObservabilityDocCoversStats(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	declared, keys := map[string]bool{}, map[string]bool{}
	for _, s := range (&Handler{}).declareStats() {
		if s.name != "" {
			declared[s.name] = true
		}
		if s.key != "" && s.block != "" {
			keys[s.block+"."+s.key] = true
		} else if s.key != "" {
			keys[s.key] = true
		}
	}
	h := durableHandler(t, goldenEngine(t), WALConfig{Dir: t.TempDir()}, WithCache(8), WithOpenInfo(time.Second, "parse"))
	_, body := get(t, h, "/statz")
	for block, raw := range body {
		var m map[string]json.RawMessage
		switch {
		case block == "index" || block == "latency": // the engine's typed document; one entry per endpoint
		case json.Unmarshal(raw, &m) != nil:
			keys[block] = true
		default:
			for k := range m {
				keys[block+"."+k] = true
			}
		}
	}
	for name := range declared {
		if !strings.Contains(doc, "`"+name) {
			t.Errorf("docs/OBSERVABILITY.md does not name the series %s", name)
		}
	}
	for key := range keys {
		if !strings.Contains(doc, "`"+key+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not name the /statz key %s", key)
		}
	}
	for _, name := range regexp.MustCompile(`kdash_[a-z0-9_]+`).FindAllString(doc, -1) {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && declared[b] {
				base = b
			}
		}
		if !declared[base] {
			t.Errorf("docs/OBSERVABILITY.md names %s, which no statistic declares", name)
		}
	}
}
