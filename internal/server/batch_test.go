package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

func post(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// itemJSON is one /topk/batch item, and equally one /topk response:
// the two must be equal field for field.
type itemJSON struct {
	K          int `json:"k"`
	RequestedK int `json:"requestedK"`
	Results    []struct {
		Node  int     `json:"node"`
		Score float64 `json:"score"`
	} `json:"results"`
	Stats refStats `json:"stats"`
}

type batchRespJSON struct {
	Count int        `json:"count"`
	Items []itemJSON `json:"items"`
	Stats struct {
		Queries int   `json:"queries"`
		Visited int64 `json:"visited"`
	} `json:"stats"`
}

// TestBatchEndpointMatchesSingle is the HTTP half of the batch exactness
// property: for both engine shapes and the acceptance batch sizes, every
// POST /topk/batch item — results and stats, with and without a
// per-item exclude — equals the GET /topk answer for the same query
// exactly.
func TestBatchEndpointMatchesSingle(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	engines := map[string]shard.Engine{}
	for _, shards := range []int{1, 4} {
		sx, err := shard.Build(g, shard.Options{Shards: shards, Reorder: reorder.Hybrid, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		engines[fmt.Sprintf("shards=%d", shards)] = sx
	}

	for name, engine := range engines {
		h := New(engine)
		for _, nb := range []int{1, 7, 64} {
			var sb strings.Builder
			sb.WriteString(`{"queries":[`)
			singles := make([]string, nb)
			for i := range singles {
				q := (i * 31) % engine.N()
				if i > 0 {
					sb.WriteString(",")
				}
				if i%3 == 2 { // every third item bars its own query node and a neighbour id
					fmt.Fprintf(&sb, `{"q":%d,"k":5,"exclude":[%d,%d]}`, q, q, (q+1)%engine.N())
					singles[i] = fmt.Sprintf("/topk?q=%d&k=5&exclude=%d,%d", q, q, (q+1)%engine.N())
				} else {
					fmt.Fprintf(&sb, `{"q":%d,"k":5}`, q)
					singles[i] = fmt.Sprintf("/topk?q=%d&k=5", q)
				}
			}
			sb.WriteString(`]}`)
			rec := post(t, h, "/topk/batch", sb.String())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s nb=%d: status %d: %s", name, nb, rec.Code, rec.Body.String())
			}
			var resp batchRespJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != nb || len(resp.Items) != nb || resp.Stats.Queries != nb {
				t.Fatalf("%s nb=%d: count %d items %d statsQueries %d", name, nb, resp.Count, len(resp.Items), resp.Stats.Queries)
			}
			visited := int64(0)
			for i, url := range singles {
				recS, _ := get(t, h, url)
				var single itemJSON
				if err := json.Unmarshal(recS.Body.Bytes(), &single); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resp.Items[i], single) {
					t.Errorf("%s nb=%d item %d: batch %+v vs %s %+v", name, nb, i, resp.Items[i], url, single)
				}
				visited += int64(single.Stats.Visited)
			}
			if resp.Stats.Visited != visited {
				t.Errorf("%s nb=%d: aggregate visited %d, singles sum to %d", name, nb, resp.Stats.Visited, visited)
			}
		}
	}
}

// TestBatchEndpointExclude checks per-query exclusions apply.
func TestBatchEndpointExclude(t *testing.T) {
	h, _ := testHandler(t)
	rec := post(t, h, "/topk/batch", `{"queries":[{"q":7,"k":5,"exclude":[7]},{"q":7,"k":5}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchRespJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Items[0].Results {
		if r.Node == 7 {
			t.Error("excluded node 7 in first item")
		}
	}
	found := false
	for _, r := range resp.Items[1].Results {
		if r.Node == 7 {
			found = true
		}
	}
	if !found {
		t.Error("query node missing from unexcluded item")
	}
}

// cancellingEngine cancels the request after its after-th Search returns
// and counts the Searches that ran.
type cancellingEngine struct {
	shard.Engine
	after  int
	calls  int
	cancel context.CancelFunc
}

func (e *cancellingEngine) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	e.calls++
	rs, st, err := e.Engine.Search(q, opt)
	if e.calls == e.after {
		e.cancel()
	}
	return rs, st, err
}

// localSolver routes a factorless index's solves to a second, in-process
// copy of the index, one worker serving every shard: the coordinator's
// shape without the wire.
type localSolver struct{ sx *shard.ShardedIndex }

func (r localSolver) RunRows(_ int, q *rpc.RunRowsRequest, rep *rpc.RunRowsReply) error {
	q.Served = make([]int, r.sx.Shards())
	for si := range q.Served {
		q.Served[si] = si
	}
	return r.sx.RunShardRows(q, rep)
}

// TestBatchCancelledBetweenQueries cancels a request's context once item
// 2 of a 5-item batch has been answered: item 3 never runs, and the
// request ends on the cancelled-request path (499 and its counter), not
// as a 500 — for the in-process engine and for a factorless index whose
// solves go through a RemoteSolver.
func TestBatchCancelledBetweenQueries(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	worker, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	remote.SetFactorless()
	remote.SetRemoteSolver(localSolver{sx: worker})

	for name, engine := range map[string]shard.Engine{"in-process": sx, "remote-solver": remote} {
		ctx, cancel := context.WithCancel(context.Background())
		ce := &cancellingEngine{Engine: engine, after: 2, cancel: cancel}
		h := New(ce)
		body := `{"queries":[{"q":1,"k":3},{"q":40,"k":3},{"q":80,"k":3},{"q":100,"k":3},{"q":7,"k":3}]}`
		req := httptest.NewRequest(http.MethodPost, "/topk/batch", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		cancel()
		if rec.Code != statusClientClosedRequest {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, statusClientClosedRequest, rec.Body.String())
		}
		if ce.calls != 2 {
			t.Errorf("%s: %d queries ran, want the batch to stop after 2", name, ce.calls)
		}
		if c, e := h.qCancelled.Value(), h.qInternal.Value(); c != 1 || e != 0 {
			t.Errorf("%s: cancelled counter %d, internal errors %d; want 1 and 0", name, c, e)
		}
	}
}

// TestBatchEndpointValidation walks the malformed-batch table asserting
// exact status codes.
func TestBatchEndpointValidation(t *testing.T) {
	hm, _ := testHandler(t)
	h := New(hm.snap().engine, WithMaxBatch(4))
	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                                                                                  // empty batch
		{`{"queries":[]}`, http.StatusBadRequest},                                                                      // empty batch
		{`{"queries":[{"q":1,"k":0}]}`, http.StatusBadRequest},                                                         // k = 0
		{`{"queries":[{"q":1,"k":-3}]}`, http.StatusBadRequest},                                                        // negative k
		{`{"queries":[{"q":-1,"k":5}]}`, http.StatusBadRequest},                                                        // negative node
		{`{"queries":[{"q":99999,"k":5}]}`, http.StatusBadRequest},                                                     // out of range
		{`{"queries":[{"q":1,"k":5},{"q":2}]}`, http.StatusBadRequest},                                                 // second query missing k
		{`{"queries":[{"q":1,"k":5},{"q":2,"k":5},{"q":3,"k":5},{"q":4,"k":5},{"q":5,"k":5}]}`, http.StatusBadRequest}, // oversized
		{`{"queries":[{"q":1,"k":5,"exclude":["x"]}]}`, http.StatusBadRequest},                                         // non-numeric exclude
		{`{"queries":[{"q":1,"k":5}]}`, http.StatusOK},
	} {
		rec := post(t, h, "/topk/batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/topk/batch", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /topk/batch: status %d", rec.Code)
	}
}

// TestBatchCountersInStatz checks /statz reports batch traffic.
func TestBatchCountersInStatz(t *testing.T) {
	h, _ := testHandler(t)
	post(t, h, "/topk/batch", `{"queries":[{"q":1,"k":3},{"q":2,"k":3},{"q":3,"k":3}]}`)
	post(t, h, "/topk/batch", `not json`)
	rec, _ := get(t, h, "/statz")
	var resp struct {
		Queries struct {
			Batch        int64 `json:"batch"`
			BatchQueries int64 `json:"batchQueries"`
			BadRequest   int64 `json:"badRequest"`
			Errors       int64 `json:"errors"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Queries.Batch != 2 || resp.Queries.BatchQueries != 3 {
		t.Errorf("batch counters = %+v", resp.Queries)
	}
	if resp.Queries.BadRequest != 1 || resp.Queries.Errors != 1 {
		t.Errorf("error counters = %+v", resp.Queries)
	}
}
