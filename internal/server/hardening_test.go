package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// brokenEngine fails or panics on demand, standing in for internal
// faults the validation layer cannot catch. It implements what the
// query endpoints and /statz call; the rest of shard.Engine is the nil
// embedded interface and never reached.
type brokenEngine struct {
	shard.Engine
	n      int
	panics bool
}

func (e *brokenEngine) N() int                           { return e.n }
func (e *brokenEngine) Restart() float64                 { return 0.95 }
func (e *brokenEngine) Epoch() int                       { return 0 }
func (e *brokenEngine) Statz() shard.Statz               { return shard.Statz{Kind: "sharded", Nodes: e.n} }
func (e *brokenEngine) GraphBytes() (sealed, heap int64) { return 0, 0 }
func (e *brokenEngine) fail() error {
	if e.panics {
		panic("solve shape mismatch")
	}
	return errors.New("engine exploded")
}
func (e *brokenEngine) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	return nil, core.SearchStats{}, e.fail()
}
func (e *brokenEngine) TopKPersonalizedContext(ctx context.Context, seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	return nil, core.SearchStats{}, e.fail()
}
func (e *brokenEngine) ProximityContext(ctx context.Context, q, u int) (float64, error) {
	return 0, e.fail()
}

// TestEngineFailureIs500 checks that failures past validation surface as
// 500, not the blanket 400 the server used to send.
func TestEngineFailureIs500(t *testing.T) {
	h := New(&brokenEngine{n: 100})
	for _, req := range []struct{ method, url, body string }{
		{http.MethodGet, "/topk?q=1&k=5", ""},
		{http.MethodGet, "/proximity?q=1&u=2", ""},
		{http.MethodPost, "/personalized", `{"seeds":{"1":1},"k":3}`},
		{http.MethodPost, "/topk/batch", `{"queries":[{"q":1,"k":3}]}`},
	} {
		r := httptest.NewRequest(req.method, req.url, strings.NewReader(req.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s %s: status %d, want 500 (%s)", req.method, req.url, rec.Code, rec.Body.String())
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s %s: malformed error document %q", req.method, req.url, rec.Body.String())
		}
	}
}

// TestPanicRecovery checks a panicking engine yields a 500 response (not
// a dead connection) and that /statz counts the panic.
func TestPanicRecovery(t *testing.T) {
	h := New(&brokenEngine{n: 100, panics: true})
	rec, body := get(t, h, "/topk?q=1&k=5")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if _, ok := body["error"]; !ok {
		t.Fatalf("no error field: %s", rec.Body.String())
	}
	srec, _ := get(t, h, "/statz")
	var resp struct {
		Queries struct {
			Panics   int64 `json:"panics"`
			Internal int64 `json:"internal"`
			Errors   int64 `json:"errors"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Queries.Panics != 1 || resp.Queries.Internal != 1 || resp.Queries.Errors != 1 {
		t.Errorf("counters = %+v, want one panic counted as internal", resp.Queries)
	}
}

// TestPanicRecoveryLiveServer drives the recovery through a real
// connection: the client must see a response, not an aborted stream.
func TestPanicRecoveryLiveServer(t *testing.T) {
	srv := httptest.NewServer(New(&brokenEngine{n: 100, panics: true}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/topk?q=1&k=5")
	if err != nil {
		t.Fatalf("connection died instead of returning a response: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
}

// TestLazyLoadFailureIs503 removes index files from under a lazily
// opened sharded index: a query that needs a missing shard file or the
// missing graph snapshot is abandoned with a 503 and a Retry-After hint
// — exact or unavailable — and nothing panics. /proximity never reads
// the snapshot, so it still answers without graph.idx. An update stages
// against the snapshot, so without graph.idx it is a 503 too.
func TestLazyLoadFailureIs503(t *testing.T) {
	sx, err := shard.Build(gen.PlantedPartition(200, 4, 0.2, 0.02, 3), shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct{ method, url, body string }{
		{http.MethodGet, "/topk?q=0&k=5", ""},
		{http.MethodPost, "/topk/batch", `{"queries":[{"q":0,"k":5}]}`},
		{http.MethodPost, "/personalized", `{"seeds":{"0":1},"k":5}`},
		{http.MethodGet, "/proximity?q=0&u=1", ""},
		{http.MethodPost, "/update", `{"addEdges":[{"from":0,"to":1}]}`},
	}
	for _, missing := range []string{"shard-*.idx", "graph.idx"} {
		for _, req := range requests {
			if req.url == "/update" && missing != "graph.idx" {
				continue
			}
			dir := filepath.Join(t.TempDir(), "idx")
			if err := sx.Save(dir); err != nil {
				t.Fatal(err)
			}
			lazy, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, missing))
			if err != nil || len(files) == 0 {
				t.Fatalf("no %s in %s: %v", missing, dir, err)
			}
			for _, f := range files {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
			h := New(lazy)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(req.method, req.url, strings.NewReader(req.body)))
			want := http.StatusServiceUnavailable
			if missing == "graph.idx" && strings.HasPrefix(req.url, "/proximity") {
				want = http.StatusOK
			}
			if rec.Code != want {
				t.Errorf("without %s, %s %s: status %d, want %d (%s)", missing, req.method, req.url, rec.Code, want, rec.Body.String())
			}
			if want == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
				t.Errorf("without %s, %s %s: 503 without Retry-After", missing, req.method, req.url)
			}
			if p := h.qPanics.Value(); p != 0 {
				t.Errorf("without %s, %s %s: %d panics counted", missing, req.method, req.url, p)
			}
			lazy.Close()
		}
	}
}

// malformedInputs are malformed requests across every endpoint, each
// with its exact status code, for testHandler's 120-node graph.
var malformedInputs = []struct {
	method, url, body string
	want              int
}{
	// /topk
	{http.MethodGet, "/topk", "", http.StatusBadRequest},                     // missing params
	{http.MethodGet, "/topk?q=1", "", http.StatusBadRequest},                 // missing k
	{http.MethodGet, "/topk?q=1&k=0", "", http.StatusBadRequest},             // k = 0
	{http.MethodGet, "/topk?q=1&k=-5", "", http.StatusBadRequest},            // negative k
	{http.MethodGet, "/topk?q=-1&k=5", "", http.StatusBadRequest},            // negative node
	{http.MethodGet, "/topk?q=120&k=5", "", http.StatusBadRequest},           // node == n
	{http.MethodGet, "/topk?q=1&k=5&exclude=1,x", "", http.StatusBadRequest}, // non-numeric exclude
	{http.MethodGet, "/topk?q=1&k=5&exclude=999", "", http.StatusOK},         // out-of-range exclude is harmless
	{http.MethodPost, "/topk?q=1&k=5", "", http.StatusMethodNotAllowed},
	// /personalized
	{http.MethodPost, "/personalized", `{"seeds":{"1":1},"k":0}`, http.StatusBadRequest},    // k = 0
	{http.MethodPost, "/personalized", `{"seeds":{"1":1},"k":-1}`, http.StatusBadRequest},   // negative k
	{http.MethodPost, "/personalized", `{"seeds":{},"k":3}`, http.StatusBadRequest},         // empty seeds
	{http.MethodPost, "/personalized", `{"k":3}`, http.StatusBadRequest},                    // missing seeds
	{http.MethodPost, "/personalized", `{"seeds":{"x":1},"k":3}`, http.StatusBadRequest},    // non-numeric seed
	{http.MethodPost, "/personalized", `{"seeds":{"-2":1},"k":3}`, http.StatusBadRequest},   // negative seed id
	{http.MethodPost, "/personalized", `{"seeds":{"500":1},"k":3}`, http.StatusBadRequest},  // out-of-range seed
	{http.MethodPost, "/personalized", `{"seeds":{"1":0},"k":3}`, http.StatusBadRequest},    // zero weight
	{http.MethodPost, "/personalized", `{"seeds":{"1":-0.5},"k":3}`, http.StatusBadRequest}, // negative weight
	{http.MethodPost, "/personalized", `{"seeds":{"1":1,"2":2},"k":3}`, http.StatusOK},
	{http.MethodGet, "/personalized", "", http.StatusMethodNotAllowed},

	// Finite seed weights whose total overflows.
	{http.MethodPost, "/personalized", `{"seeds":{"1":1e308,"2":1e308},"k":3}`, http.StatusBadRequest},
	// /proximity
	{http.MethodGet, "/proximity?q=1", "", http.StatusBadRequest},       // missing u
	{http.MethodGet, "/proximity?q=1&u=abc", "", http.StatusBadRequest}, // non-numeric u
	{http.MethodGet, "/proximity?q=1&u=120", "", http.StatusBadRequest}, // u out of range
	{http.MethodGet, "/proximity?q=-7&u=1", "", http.StatusBadRequest},  // q out of range
	{http.MethodGet, "/proximity?q=1&u=2", "", http.StatusOK},
}

// TestMalformedInputsTable sweeps malformedInputs through the handler,
// asserting the exact status code for each.
func TestMalformedInputsTable(t *testing.T) {
	h, _ := testHandler(t) // 120-node graph
	for _, tc := range malformedInputs {
		r := httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != tc.want {
			t.Errorf("%s %s %q: status %d, want %d (%s)", tc.method, tc.url, tc.body, rec.Code, tc.want, rec.Body.String())
		}
		if tc.want != http.StatusOK {
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
				t.Errorf("%s %s: error response lacks error field: %q", tc.method, tc.url, rec.Body.String())
			}
		}
	}
}

// TestActualResultCount checks the wire k reports the number of results
// actually returned when the graph yields fewer than requested.
func TestActualResultCount(t *testing.T) {
	// Node 2 is unreachable from 0; only {0,1} can answer.
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	sx, err := shard.Build(b.Build(), shard.Options{Reorder: reorder.Natural})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx)
	rec, _ := get(t, h, "/topk?q=0&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		K          int `json:"k"`
		RequestedK int `json:"requestedK"`
		Results    []struct {
			Node int `json:"node"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2 (only 2 nodes reachable)", len(resp.Results))
	}
	if resp.K != 2 {
		t.Errorf("k = %d, want the actual count 2", resp.K)
	}
	if resp.RequestedK != 5 {
		t.Errorf("requestedK = %d, want 5", resp.RequestedK)
	}
}

// TestPostBodyCap posts each POST endpoint a valid request led by
// whitespace to exactly maxPostBody bytes, which it serves, and to one
// byte more, which it refuses with a 400 counted in badRequest — the
// decoder must read past the cap to reach the value.
func TestPostBodyCap(t *testing.T) {
	h := updatableHandler(t)
	badRequests := func() int64 {
		rec, _ := get(t, h, "/statz")
		var resp struct {
			Queries struct {
				BadRequest int64 `json:"badRequest"`
			} `json:"queries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Queries.BadRequest
	}
	for _, c := range []struct{ url, body string }{
		{"/topk/batch", `{"queries":[{"q":1,"k":3}]}`},
		{"/personalized", `{"seeds":{"3":1},"k":3}`},
		{"/update", `{"addEdges":[{"from":3,"to":100}]}`},
	} {
		for _, size := range []int{maxPostBody, maxPostBody + 1} {
			before := badRequests()
			rec := post(t, h, c.url, strings.Repeat(" ", size-len(c.body))+c.body)
			want, counted := http.StatusOK, int64(0)
			if size > maxPostBody {
				want, counted = http.StatusBadRequest, 1
			}
			if rec.Code != want {
				t.Errorf("%s with a %d-byte body: status %d, want %d (%.200s)", c.url, size, rec.Code, want, rec.Body.String())
			}
			if got := badRequests() - before; got != counted {
				t.Errorf("%s with a %d-byte body: badRequest rose by %d, want %d", c.url, size, got, counted)
			}
		}
	}
}
