package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/shard"
)

// testHandler serves a one-shard engine: the whole graph in one block,
// so the push is a single solve and the rank does all the pruning.
// shardedHandler (statz_test.go) serves the same graph in four shards.
func testHandler(t *testing.T) (*Handler, *shard.ShardedIndex) {
	t.Helper()
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 1, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(sx), sx
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from %s: %v (%q)", url, err, rec.Body.String())
	}
	return rec, body
}

func TestTopKEndpoint(t *testing.T) {
	h, ix := testHandler(t)
	rec, _ := get(t, h, "/topk?q=7&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		K       int `json:"k"`
		Results []struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		} `json:"results"`
		Stats struct {
			Visited int `json:"visited"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 5 || len(resp.Results) != 5 {
		t.Fatalf("resp = %+v", resp)
	}
	want, _, err := ix.TopK(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Node != want[i].Node {
			t.Errorf("rank %d: %d vs %d", i, r.Node, want[i].Node)
		}
	}
	if resp.Stats.Visited == 0 {
		t.Error("stats missing")
	}
}

func TestTopKExcludeParam(t *testing.T) {
	h, _ := testHandler(t)
	rec, _ := get(t, h, "/topk?q=7&k=5&exclude=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"node":7,`) {
		t.Errorf("excluded node in response: %s", rec.Body.String())
	}
}

func TestTopKValidation(t *testing.T) {
	h, _ := testHandler(t)
	for _, url := range []string{
		"/topk",                   // missing params
		"/topk?q=abc&k=5",         // bad q
		"/topk?q=1&k=zero",        // bad k
		"/topk?q=999&k=5",         // out of range
		"/topk?q=1&k=0",           // bad k value
		"/topk?q=1&k=5&exclude=x", // bad exclude
	} {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: no error field", url)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/topk?q=1&k=5", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /topk: status %d", rec.Code)
	}
}

func TestPersonalizedEndpoint(t *testing.T) {
	h, ix := testHandler(t)
	body := `{"seeds":{"3":1,"80":2},"k":4}`
	req := httptest.NewRequest(http.MethodPost, "/personalized", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []struct {
			Node int `json:"node"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.TopKPersonalized(map[int]float64{3: 1, 80: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
	}
	for i := range want {
		if resp.Results[i].Node != want[i].Node {
			t.Errorf("rank %d: %d vs %d", i, resp.Results[i].Node, want[i].Node)
		}
	}
}

func TestPersonalizedValidation(t *testing.T) {
	h, _ := testHandler(t)
	for _, body := range []string{
		`not json`,
		`{"seeds":{"x":1},"k":3}`,
		`{"seeds":{},"k":3}`,
		`{"seeds":{"1":1},"k":0}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/personalized", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/personalized", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /personalized: status %d", rec.Code)
	}
}

// TestProximityEndpoint checks /proximity against the engine and, on a
// multi-shard engine, against the scores /topk ranks with.
func TestProximityEndpoint(t *testing.T) {
	h, ix := testHandler(t)
	g := 7
	want, err := ix.Proximity(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := get(t, h, fmt.Sprintf("/proximity?q=%d&u=9", g))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Proximity float64 `json:"proximity"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Proximity != want {
		t.Errorf("proximity %v, want %v", resp.Proximity, want)
	}
	rec, _ = get(t, h, "/proximity?q=7")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing u: status %d", rec.Code)
	}

	// On a four-shard engine /proximity answers the very bits /topk
	// ranks each node with, and still does after an /update.
	hs := updatableHandler(t)
	samePairs := func(stage string) {
		for q := 0; q < 120; q += 6 {
			rec, _ := get(t, hs, fmt.Sprintf("/topk?q=%d&k=10", q))
			var top itemJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: /topk?q=%d: %d %v", stage, q, rec.Code, err)
			}
			for _, r := range top.Results {
				rec, _ := get(t, hs, fmt.Sprintf("/proximity?q=%d&u=%d", q, r.Node))
				var resp struct {
					Proximity float64 `json:"proximity"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("%s: /proximity?q=%d&u=%d: %d %v", stage, q, r.Node, rec.Code, err)
				}
				if math.Float64bits(resp.Proximity) != math.Float64bits(r.Score) {
					t.Errorf("%s: /proximity?q=%d&u=%d = %v, /topk scored %v", stage, q, r.Node, resp.Proximity, r.Score)
				}
			}
		}
	}
	samePairs("before update")
	if rec := post(t, hs, "/update", `{"addEdges":[{"from":3,"to":100},{"from":61,"to":7}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	samePairs("after update")
}

func TestHealthEndpoint(t *testing.T) {
	h, ix := testHandler(t)
	rec, _ := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Status  string  `json:"status"`
		Nodes   int     `json:"nodes"`
		Restart float64 `json:"restart"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Nodes != ix.N() || resp.Restart != rwr.DefaultRestart {
		t.Errorf("health = %+v", resp)
	}
}

func TestAgainstLiveServer(t *testing.T) {
	h, _ := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/topk?q=0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
}
