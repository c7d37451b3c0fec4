package server

// Tests for the observability layer: /metrics exposition shape and
// /statz parity, per-query tracing, cancellation mapping, request
// logging, cache footprint counters and concurrent scrapes under mixed
// load (the latter matters mostly under -race).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kdash/internal/gen"
	"kdash/internal/placement"
	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return rec.Body.String()
}

// metricValue finds one sample line by its exact prefix ("name{labels} ")
// and parses its value; ok is false when the series is absent.
func metricValue(text, prefix string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, found := strings.CutPrefix(line, prefix+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// TestMetricsExposition checks the scrape is well-formed Prometheus
// text — every line a comment or `name{labels} value` — and carries
// the endpoint latency histograms and per-shard engine series.
func TestMetricsExposition(t *testing.T) {
	h, _ := shardedHandler(t)
	for i := 0; i < 3; i++ {
		get(t, h, "/topk?q=7&k=5")
	}
	get(t, h, fmt.Sprintf("/proximity?q=%d&u=%d", 3, 11))
	text := scrape(t, h)

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInf]+$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}

	if v, ok := metricValue(text, `kdash_http_requests_total{endpoint="topk",code="200"}`); !ok || v != 3 {
		t.Errorf("topk 200 count = %v (ok=%t), want 3", v, ok)
	}
	for _, want := range []string{
		`kdash_http_request_duration_seconds_bucket{endpoint="topk",le="+Inf"} 3`,
		`kdash_http_request_duration_seconds_count{endpoint="topk"} 3`,
		"# TYPE kdash_http_request_duration_seconds histogram",
		"# TYPE kdash_http_requests_total counter",
		"# TYPE kdash_epoch gauge",
		`kdash_shard_opened{shard="0"}`,
		`kdash_shard_solves_total{shard="`,
		"kdash_index_shards 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The per-endpoint p99 the issue promises: cumulative buckets plus
	// count are what Prometheus derives quantiles from — check the
	// buckets are cumulative (monotone non-decreasing le series).
	prev := -1.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `kdash_http_request_duration_seconds_bucket{endpoint="topk",`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < prev {
			t.Errorf("non-cumulative bucket series at %q", line)
		}
		prev = v
	}
}

// TestStatzMetricsParity: the JSON and Prometheus surfaces read the
// same counters, so at a quiet moment they must agree exactly.
func TestStatzMetricsParity(t *testing.T) {
	h, _ := shardedHandler(t)
	for i := 0; i < 5; i++ {
		get(t, h, "/topk?q=7&k=5")
	}
	get(t, h, "/topk?q=-1&k=5") // one 400 for the error counters

	_, body := get(t, h, "/statz")
	var queries map[string]int64
	if err := json.Unmarshal(body["queries"], &queries); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, h)

	if v, _ := metricValue(text, `kdash_http_requests_total{endpoint="topk",code="200"}`); int64(v) != 5 {
		t.Errorf("metrics topk 200 = %v, statz made 5 good requests", v)
	}
	if v, _ := metricValue(text, `kdash_http_requests_total{endpoint="topk",code="400"}`); int64(v) != queries["badRequest"] {
		t.Errorf("metrics topk 400 = %v, statz badRequest = %d", v, queries["badRequest"])
	}
	if v, _ := metricValue(text, `kdash_http_errors_total{kind="badRequest"}`); int64(v) != queries["badRequest"] {
		t.Errorf("metrics badRequest = %v, statz = %d", v, queries["badRequest"])
	}
	if v, _ := metricValue(text, "kdash_queries_cancelled_total"); int64(v) != queries["cancelled"] {
		t.Errorf("metrics cancelled = %v, statz = %d", v, queries["cancelled"])
	}
	// statz latency count and the histogram _count must both equal the
	// completed topk requests (6: five 200s plus the 400).
	var lat map[string]map[string]float64
	if err := json.Unmarshal(body["latency"], &lat); err != nil {
		t.Fatal(err)
	}
	if got := lat["topk"]["count"]; got != 6 {
		t.Errorf("statz latency.topk.count = %v, want 6", got)
	}
	if v, _ := metricValue(text, `kdash_http_request_duration_seconds_count{endpoint="topk"}`); v != 6 {
		t.Errorf("metrics duration count = %v, want 6", v)
	}
}

// TestTraceBlock: ?trace=1 (and the header form) return the per-query
// push trace; untraced requests must not carry the block.
func TestTraceBlock(t *testing.T) {
	h, _ := shardedHandler(t)
	rec, body := get(t, h, "/topk?q=7&k=5&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var trace struct {
		Steps []struct {
			Shard          int     `json:"shard"`
			ResidualBefore float64 `json:"residualBefore"`
			DurationNS     int64   `json:"durationNs"`
		} `json:"steps"`
		Residual  []float64 `json:"residual"`
		Solves    int       `json:"solves"`
		Converged bool      `json:"converged"`
		SolveNS   int64     `json:"solveNs"`
	}
	if body["trace"] == nil {
		t.Fatalf("no trace block in %s", rec.Body.String())
	}
	if err := json.Unmarshal(body["trace"], &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Solves == 0 || len(trace.Steps) != trace.Solves {
		t.Errorf("solves = %d with %d steps", trace.Solves, len(trace.Steps))
	}
	if !trace.Converged {
		t.Error("traced query did not converge")
	}
	if trace.SolveNS <= 0 {
		t.Errorf("solveNs = %d, want > 0", trace.SolveNS)
	}
	if len(trace.Residual) != len(trace.Steps) {
		t.Errorf("%d residual points for %d steps", len(trace.Residual), len(trace.Steps))
	}
	// The residual trajectory after each solve never rises above the
	// seeded mass and must end under tolerance for a converged query.
	for i := 1; i < len(trace.Steps); i++ {
		if trace.Steps[i].ResidualBefore != trace.Residual[i-1] {
			t.Errorf("step %d residualBefore %g != residual[%d] %g",
				i, trace.Steps[i].ResidualBefore, i-1, trace.Residual[i-1])
		}
	}

	// Header opt-in, same contract.
	req := httptest.NewRequest(http.MethodGet, "/topk?q=7&k=5", nil)
	req.Header.Set("X-Kdash-Trace", "1")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if !strings.Contains(rec2.Body.String(), `"trace"`) {
		t.Error("X-Kdash-Trace did not produce a trace block")
	}

	// No opt-in, no block.
	rec3, _ := get(t, h, "/topk?q=7&k=5")
	if strings.Contains(rec3.Body.String(), `"trace"`) {
		t.Error("untraced response carries a trace block")
	}
}

// TestCancelledRequest: a context already cancelled when the engine
// starts maps to 499 and the cancelled counter, not a 500.
func TestCancelledRequest(t *testing.T) {
	h, _ := shardedHandler(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		method, url, body string
	}{
		{http.MethodGet, "/topk?q=7&k=5", ""},
		{http.MethodPost, "/topk/batch", `{"queries":[{"q":7,"k":5}]}`},
	} {
		var rd *strings.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		} else {
			rd = strings.NewReader("")
		}
		req := httptest.NewRequest(tc.method, tc.url, rd).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != statusClientClosedRequest {
			t.Errorf("%s %s with cancelled context: status %d, want %d (%s)",
				tc.method, tc.url, rec.Code, statusClientClosedRequest, rec.Body.String())
		}
	}
	if got := h.qCancelled.Value(); got != 2 {
		t.Errorf("cancelled counter = %d, want 2", got)
	}
	if got := h.qInternal.Value(); got != 0 {
		t.Errorf("cancellations counted as internal errors: %d", got)
	}
}

// TestRequestLogging: WithRequestLog emits one structured line per
// request with the promised fields.
func TestRequestLogging(t *testing.T) {
	g, sx := shardedHandler(t)
	_ = g
	var buf bytes.Buffer
	h := New(sx, WithRequestLog(slog.New(slog.NewJSONHandler(&buf, nil))))
	get(t, h, "/topk?q=7&k=5")
	get(t, h, "/topk?q=-3&k=5")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(lines), buf.String())
	}
	var entry struct {
		Level    string `json:"level"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
		TraceID  string `json:"traceId"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Endpoint != "topk" || entry.Status != 200 || len(entry.TraceID) != 16 {
		t.Errorf("log entry = %+v", entry)
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Status != 400 || entry.Level != "WARN" {
		t.Errorf("bad-request log entry = %+v", entry)
	}
}

// TestHealthzBuildInfo: /healthz carries the build block.
func TestHealthzBuildInfo(t *testing.T) {
	h, _ := testHandler(t)
	_, body := get(t, h, "/healthz")
	var build map[string]string
	if err := json.Unmarshal(body["build"], &build); err != nil {
		t.Fatal(err)
	}
	if build["goVersion"] == "" {
		t.Errorf("build block missing goVersion: %v", build)
	}
}

// TestCacheFootprintCounters: evictions and byte size are tracked and
// surfaced through /statz.
func TestCacheFootprintCounters(t *testing.T) {
	c := newAnswerCache(2)
	c.put(entry(1, 4, 1, 2), 0)
	c.put(entry(2, 4, 3), 0)
	c.put(entry(3, 4, 4), 0) // evicts 1 (2 results + 1 shard id out, 1 + 1 in)
	entries, bytes, evictions := c.stats()
	if entries != 2 || bytes != 2*(16+8) || evictions != 1 {
		t.Errorf("stats = (%d, %d, %d), want (2, %d, 1)", entries, bytes, evictions, 2*(16+8))
	}
	c.flush(1)
	if _, b, ev := c.stats(); b != 0 || ev != 1 {
		t.Errorf("after flush: bytes %d (want 0), evictions %d (want 1: flushes are not evictions)", b, ev)
	}

	_, ix := testHandler(t)
	h := New(ix, WithCache(1))
	get(t, h, "/topk?q=1&k=3")
	get(t, h, "/topk?q=2&k=3") // evicts q=1's answer
	_, body := get(t, h, "/statz")
	var cache map[string]int64
	if err := json.Unmarshal(body["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	if cache["evictions"] != 1 || cache["entries"] != 1 {
		t.Errorf("statz cache = %v", cache)
	}
	// One cachedK-deep list and its one solved shard.
	if want := int64(16*cachedK + 8); cache["bytes"] != want {
		t.Errorf("statz cache bytes = %d, want %d", cache["bytes"], want)
	}
	text := scrape(t, h)
	if v, ok := metricValue(text, "kdash_cache_evictions_total"); !ok || v != 1 {
		t.Errorf("metrics evictions = %v (ok=%t), want 1", v, ok)
	}
}

// TestConcurrentScrapeUnderLoad hammers queries, updates and both
// observability surfaces from concurrent goroutines; its real assertion
// is the race detector's (the CI race job runs this package).
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	h, _ := shardedHandler(t)
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0:
					req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/topk?q=%d&k=5&trace=1", (w*iters+i)%120), nil)
					h.ServeHTTP(httptest.NewRecorder(), req)
				case 1:
					req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
					h.ServeHTTP(httptest.NewRecorder(), req)
				case 2:
					req := httptest.NewRequest(http.MethodGet, "/statz", nil)
					h.ServeHTTP(httptest.NewRecorder(), req)
				case 3:
					body := fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d}]}`, (w*iters+i)%120, (w*iters+i+7)%120)
					req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
					h.ServeHTTP(httptest.NewRecorder(), req)
				}
			}
		}(w)
	}
	wg.Wait()
	// After the dust settles the two surfaces must still agree.
	text := scrape(t, h)
	if v, ok := metricValue(text, `kdash_http_requests_total{endpoint="topk",code="200"}`); !ok || int64(v) != 2*iters {
		t.Errorf("topk 200s = %v (ok=%t), want %d", v, ok, 2*iters)
	}
}

// TestClusterMetricsExposition serves a real loopback coordinator
// through the handler and checks /metrics carries the per-worker
// series writeClusterMetrics projects from the coordinator's Statz —
// a shape drift between placement.Coordinator.Statz and the projection
// fails here, not on a production dashboard.
func TestClusterMetricsExposition(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	addrs := make([]string, workers)
	for w := 0; w < workers; w++ {
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
	h := New(co)
	for i := 0; i < 3; i++ {
		if rec, _ := get(t, h, "/topk?q=7&k=5"); rec.Code != http.StatusOK {
			t.Fatalf("topk through coordinator: %d (%s)", rec.Code, rec.Body.String())
		}
	}
	text := scrape(t, h)
	for w := 0; w < workers; w++ {
		calls, ok := metricValue(text, fmt.Sprintf(`kdash_worker_calls_total{worker="%d"}`, w))
		if !ok || calls <= 0 {
			t.Errorf("worker %d calls series = %v (ok=%t), want > 0", w, calls, ok)
		}
		if v, ok := metricValue(text, fmt.Sprintf(`kdash_worker_shards{worker="%d"}`, w)); !ok || v != 2 {
			t.Errorf("worker %d shards = %v (ok=%t), want 2", w, v, ok)
		}
		if v, ok := metricValue(text, fmt.Sprintf(`kdash_worker_errors_total{worker="%d"}`, w)); !ok || v != 0 {
			t.Errorf("worker %d errors = %v (ok=%t), want 0", w, v, ok)
		}
	}
	for _, want := range []string{
		"# TYPE kdash_worker_calls_total counter",
		"# TYPE kdash_worker_call_mean_micros gauge",
		`kdash_http_errors_total{kind="unavailable"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUpdatePathObservability: an operator must be able to read how
// long an apply took, where the time went and — in WAL mode — how long a
// reader stalled behind it, off /metrics, /statz and ?trace=1 alone.
func TestUpdatePathObservability(t *testing.T) {
	// checkApply asserts one apply is on the books, with stage times
	// that add up to something inside its wall time's order of magnitude.
	checkApply := func(t *testing.T, h *Handler) {
		t.Helper()
		text := scrape(t, h)
		if v, ok := metricValue(text, "kdash_update_apply_seconds_count"); !ok || v != 1 {
			t.Errorf("kdash_update_apply_seconds_count = %v (present %v), want 1", v, ok)
		}
		applySec, _ := metricValue(text, "kdash_update_apply_seconds_sum")
		stageSec := 0.0
		for _, stage := range updateStages {
			v, ok := metricValue(text, `kdash_update_stage_seconds_total{stage="`+stage.name+`"}`)
			if !ok || v <= 0 {
				t.Errorf("stage %q: %v seconds (present %v), want > 0", stage.name, v, ok)
			}
			stageSec += v
		}
		// Stage times are summed over shards rebuilt in parallel, so they
		// may exceed the wall time, but not by more than the shard count.
		if applySec <= 0 || stageSec > 4*applySec {
			t.Errorf("apply took %vs, stages sum to %vs", applySec, stageSec)
		}
		_, doc := get(t, h, "/statz")
		var upd map[string]int64
		if err := json.Unmarshal(doc["updates"], &upd); err != nil {
			t.Fatal(err)
		}
		if upd["applies"] != 1 || upd["applyNs"] <= 0 || upd["graphNs"] <= 0 || upd["reorderNs"] <= 0 || upd["factorizeNs"] <= 0 || upd["invertNs"] <= 0 {
			t.Errorf("statz updates block = %v", upd)
		}
		if float64(upd["applyNs"])/1e9 != applySec {
			t.Errorf("statz applyNs %d disagrees with /metrics sum %v", upd["applyNs"], applySec)
		}
	}

	t.Run("sync", func(t *testing.T) {
		h := updatableHandler(t)
		if rec := post(t, h, "/update", `{"addEdges":[{"from":0,"to":90,"weight":2}]}`); rec.Code != http.StatusOK {
			t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
		}
		checkApply(t, h)
		if strings.Contains(scrape(t, h), "kdash_wal_barrier_wait_seconds") {
			t.Error("barrier series exported outside WAL mode")
		}
	})

	t.Run("wal", func(t *testing.T) {
		g := testutil.Clustered(120, 4, 1)
		base, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// An hour-long tick: only a blocked reader's kick drains, so the
		// query below is certain to wait on the barrier.
		h, err := NewDurable(base, WALConfig{Dir: t.TempDir(), CompactInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if rec := post(t, h, "/update", `{"addEdges":[{"from":0,"to":90,"weight":2}]}`); rec.Code != http.StatusAccepted {
			t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
		}
		var stalled, free struct {
			Trace struct {
				BarrierWaitNS int64 `json:"barrierWaitNs"`
			} `json:"trace"`
		}
		rec, _ := get(t, h, "/topk?q=0&k=3&trace=1")
		if err := json.Unmarshal(rec.Body.Bytes(), &stalled); err != nil {
			t.Fatal(err)
		}
		rec, _ = get(t, h, "/topk?q=0&k=3&trace=1")
		if err := json.Unmarshal(rec.Body.Bytes(), &free); err != nil {
			t.Fatal(err)
		}
		if stalled.Trace.BarrierWaitNS <= 0 || free.Trace.BarrierWaitNS != 0 {
			t.Errorf("barrierWaitNs = %d behind the ack and %d after it, want > 0 and 0", stalled.Trace.BarrierWaitNS, free.Trace.BarrierWaitNS)
		}
		checkApply(t, h)
		text := scrape(t, h)
		waits, _ := metricValue(text, "kdash_wal_barrier_wait_seconds_count")
		waitSec, _ := metricValue(text, "kdash_wal_barrier_wait_seconds_sum")
		if waits != 1 || waitSec != float64(stalled.Trace.BarrierWaitNS)/1e9 {
			t.Errorf("barrier histogram: %v waits, %vs; the one stalled query waited %dns", waits, waitSec, stalled.Trace.BarrierWaitNS)
		}
		// The reader waited for the whole apply and a little more.
		if applySec, _ := metricValue(text, "kdash_update_apply_seconds_sum"); waitSec < applySec {
			t.Errorf("reader waited %vs for an apply that took %vs", waitSec, applySec)
		}
		_, doc := get(t, h, "/statz")
		var walDoc map[string]json.RawMessage
		if err := json.Unmarshal(doc["wal"], &walDoc); err != nil {
			t.Fatal(err)
		}
		if string(walDoc["barrierWaits"]) != "1" || string(walDoc["barrierWaitNs"]) != strconv.FormatInt(stalled.Trace.BarrierWaitNS, 10) {
			t.Errorf("statz wal barrierWaits=%s barrierWaitNs=%s", walDoc["barrierWaits"], walDoc["barrierWaitNs"])
		}
	})
}
