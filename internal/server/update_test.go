package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

func updatableHandler(t *testing.T, opts ...Option) *Handler {
	t.Helper()
	g := testutil.Clustered(120, 4, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(sx, opts...)
}

func TestUpdateEndpointSharded(t *testing.T) {
	h := updatableHandler(t)
	// Insert a node wired to node 3 and re-weight an edge.
	rec := post(t, h, "/update", `{"addNodes":1,"addEdges":[{"from":120,"to":3,"weight":2},{"from":3,"to":120,"weight":2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp updateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || resp.Nodes != 121 || resp.NodesAdded != 1 || resp.EdgesAdded != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.FullRebuild || resp.ShardsRebuilt == 0 || resp.ShardsRebuilt >= 4 {
		t.Fatalf("sharded update rebuilt %d shards (full=%v)", resp.ShardsRebuilt, resp.FullRebuild)
	}
	// The new node is immediately queryable and ranks its neighbour.
	qrec, _ := get(t, h, "/topk?q=120&k=3")
	if qrec.Code != http.StatusOK {
		t.Fatalf("query on new node: %d %s", qrec.Code, qrec.Body.String())
	}
	var q struct {
		Results []struct {
			Node int `json:"node"`
		} `json:"results"`
	}
	if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range q.Results {
		if r.Node == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("new node's neighbour missing from answer: %+v", q.Results)
	}
	// healthz and statz reflect the swap.
	hrec, hbody := get(t, h, "/healthz")
	if hrec.Code != http.StatusOK || string(hbody["epoch"]) != "1" || string(hbody["nodes"]) != "121" {
		t.Errorf("healthz after update: %s", hrec.Body.String())
	}
	srec, _ := get(t, h, "/statz")
	var statz struct {
		Updates map[string]int64 `json:"updates"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Updates["applied"] != 1 || statz.Updates["epoch"] != 1 || statz.Updates["shardsRebuilt"] == 0 || statz.Updates["nodesAdded"] != 1 {
		t.Errorf("statz updates = %+v", statz.Updates)
	}
}

// TestUpdateEndpointOneShardFullRebuild: a one-shard engine has no
// block to confine an update to, so every apply rebuilds the whole
// index and says so.
func TestUpdateEndpointOneShardFullRebuild(t *testing.T) {
	h, _ := testHandler(t)
	rec := post(t, h, "/update", `{"addEdges":[{"from":0,"to":50}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp updateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.FullRebuild || resp.ShardsRebuilt != 1 || resp.Epoch != 1 || resp.EdgesAdded != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestUpdateEndpointValidation(t *testing.T) {
	h := updatableHandler(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                                           // empty update
		{`{"addNodes":-1}`, http.StatusBadRequest},                              // negative insert
		{`{"addNodes":9999999}`, http.StatusBadRequest},                         // over MaxAddNodes
		{`{"addEdges":[{"from":0,"to":500}]}`, http.StatusBadRequest},           // out of range
		{`{"addEdges":[{"from":-2,"to":3}]}`, http.StatusBadRequest},            // negative node
		{`{"addEdges":[{"from":0,"to":1,"weight":-4}]}`, http.StatusBadRequest}, // negative weight
		{`{"removeEdges":[{"from":0,"to":500}]}`, http.StatusBadRequest},        // out of range
		{`{"addEdges":[{"from":0,"to":1}]}`, http.StatusOK},                     // default weight 1
	} {
		rec := post(t, h, "/update", tc.body)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Removing an absent edge is a client error (400), and the engine
	// keeps serving afterwards.
	rec := post(t, h, "/update", `{"removeEdges":[{"from":5,"to":5}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing-edge removal: status %d (%s)", rec.Code, rec.Body.String())
	}
	if qrec, _ := get(t, h, "/topk?q=0&k=3"); qrec.Code != http.StatusOK {
		t.Errorf("engine broken after rejected update: %d", qrec.Code)
	}
	// GET is not allowed.
	grec, _ := get(t, h, "/update")
	if grec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: status %d", grec.Code)
	}
}

// TestUpdateInvalidatesCache pins the staleness bug the epoch-tagged
// cache exists for: a cached /topk answer must not survive an update
// that changes the graph under it.
func TestUpdateInvalidatesCache(t *testing.T) {
	h := updatableHandler(t, WithCache(8))
	before, _ := get(t, h, "/topk?q=0&k=5")
	if before.Code != http.StatusOK {
		t.Fatal(before.Body.String())
	}
	// Warm the cache.
	if rec, _ := get(t, h, "/topk?q=0&k=5"); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	// Rewire node 0 heavily towards a distant node.
	rec := post(t, h, "/update", `{"addEdges":[{"from":0,"to":99,"weight":1000}]}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	after, _ := get(t, h, "/topk?q=0&k=5")
	var a, b struct {
		Cached  bool `json:"cached"`
		Results []struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(before.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	same := len(a.Results) == len(b.Results)
	if same {
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatalf("post-update answer identical to the cached pre-update one: %+v", b.Results)
	}
	found := false
	for _, r := range b.Results {
		if r.Node == 99 {
			found = true
		}
	}
	if !found {
		t.Errorf("rewired target missing from post-update answer: %+v", b.Results)
	}
}

// TestUpdateUnderQueryLoad hammers queries concurrently with updates:
// every response must be a 200 and internally consistent (no request
// may straddle two epochs). The race detector vouches for the swap.
func TestUpdateUnderQueryLoad(t *testing.T) {
	h := updatableHandler(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", (w*17+i)%100))
				if rec.Code != http.StatusOK {
					t.Errorf("query status %d: %s", rec.Code, rec.Body.String())
					return
				}
				brec := post(t, h, "/topk/batch", fmt.Sprintf(`{"queries":[{"q":%d,"k":4},{"q":%d,"k":4}]}`, (w*7+i)%100, (w*11+i)%100))
				if brec.Code != http.StatusOK {
					t.Errorf("batch status %d: %s", brec.Code, brec.Body.String())
					return
				}
			}
		}(w)
	}
	for u := 0; u < 8; u++ {
		body := fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d,"weight":1.5}]}`, u*3, (u*3+40)%100)
		rec := post(t, h, "/update", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d: status %d (%s)", u, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
	srec, _ := get(t, h, "/statz")
	var statz struct {
		Updates map[string]int64 `json:"updates"`
		Queries map[string]int64 `json:"queries"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Updates["applied"] != 8 || statz.Updates["epoch"] != 8 {
		t.Errorf("updates = %+v", statz.Updates)
	}
	if statz.Queries["internal"] != 0 || statz.Queries["panics"] != 0 {
		t.Errorf("errors under load: %+v", statz.Queries)
	}
}

// TestSyncApplyDoesNotBlockReaders: a synchronous /update drains on its
// own request goroutine, but the apply runs outside every lock a reader
// could meet — queries keep answering from the published epoch until
// the successor is swapped in.
func TestSyncApplyDoesNotBlockReaders(t *testing.T) {
	sx, err := shard.Build(testutil.Clustered(120, 4, 1), shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &gatedEngine{ShardedIndex: sx, entered: make(chan struct{}), release: make(chan struct{})}
	h := New(e)
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- post(t, h, "/update", `{"addEdges":[{"from":0,"to":90,"weight":2}]}`) }()
	awaitEntered(t, e)

	want, _, err := sx.TopK(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := get(t, h, "/topk?q=0&k=3")
	var got struct {
		Results []struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/topk during the apply: status %d (%s)", rec.Code, rec.Body.String())
	}
	if len(got.Results) != len(want) {
		t.Fatalf("/topk during the apply: %d results, epoch 0 has %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.Node != want[i].Node || r.Score != want[i].Score {
			t.Fatalf("/topk during the apply is not epoch 0's answer: %+v vs %+v", got.Results, want)
		}
	}
	if epoch := statzEpoch(t, h); epoch != 0 {
		t.Fatalf("/statz during the apply: epoch %d, want 0", epoch)
	}

	close(e.release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("update: status %d (%s)", rec.Code, rec.Body.String())
	}
	if epoch := statzEpoch(t, h); epoch != 1 {
		t.Fatalf("/statz after the apply: epoch %d, want 1", epoch)
	}
}

// statzEpoch reads updates.epoch off /statz.
func statzEpoch(t *testing.T, h *Handler) int64 {
	t.Helper()
	rec, _ := get(t, h, "/statz")
	var statz struct {
		Updates map[string]int64 `json:"updates"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	return statz.Updates["epoch"]
}
