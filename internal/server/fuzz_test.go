package server

// Native fuzz targets for the HTTP mutation and batch surfaces:
// whatever body arrives at POST /update or POST /topk/batch, the
// handler must produce an HTTP response — 200 for the rare valid
// payload, 4xx/5xx otherwise — and never let a panic escape or corrupt
// the engine for subsequent requests. Each iteration gets a fresh
// Handler over one shared immutable base index, so a "successful"
// fuzzed update cannot snowball the graph across iterations.
//
// Run with:
//
//	go test -fuzz=FuzzUpdateEndpoint ./internal/server
//	go test -fuzz=FuzzBatchEndpoint  ./internal/server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

var fuzzEngine struct {
	once sync.Once
	sx   *shard.ShardedIndex
	err  error
}

func fuzzBaseEngine(f *testing.F) *shard.ShardedIndex {
	f.Helper()
	fuzzEngine.once.Do(func() {
		g := testutil.Clustered(48, 3, 9)
		fuzzEngine.sx, fuzzEngine.err = shard.Build(g, shard.Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	})
	if fuzzEngine.err != nil {
		f.Fatal(fuzzEngine.err)
	}
	return fuzzEngine.sx
}

// fuzzPost drives one POST and asserts the handler's contract: a
// well-formed HTTP response with a sane status, and the engine still
// answering afterwards.
func fuzzPost(t *testing.T, h *Handler, url, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusInternalServerError:
	default:
		t.Fatalf("POST %s %q: unexpected status %d (%s)", url, body, rec.Code, rec.Body.String())
	}
	after := httptest.NewRequest(http.MethodGet, "/topk?q=0&k=3", nil)
	arec := httptest.NewRecorder()
	h.ServeHTTP(arec, after)
	if arec.Code != http.StatusOK {
		t.Fatalf("engine broken after POST %s %q: %d (%s)", url, body, arec.Code, arec.Body.String())
	}
}

func FuzzUpdateEndpoint(f *testing.F) {
	sx := fuzzBaseEngine(f)
	f.Add(`{"addNodes":1,"addEdges":[{"from":48,"to":3,"weight":2}]}`)
	f.Add(`{"addEdges":[{"from":0,"to":1}]}`)
	f.Add(`{"removeEdges":[{"from":0,"to":1}]}`)
	f.Add(`{"addNodes":-1}`)
	f.Add(`{"addNodes":999999999}`)
	f.Add(`{"addEdges":[{"from":-5,"to":1e9,"weight":-0.5}]}`)
	f.Add(`{"addEdges":`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{"addEdges":[{"from":0,"to":1,"weight":1e308},{"from":0,"to":1,"weight":1e308}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, New(sx), "/update", body)
	})
}

func FuzzBatchEndpoint(f *testing.F) {
	sx := fuzzBaseEngine(f)
	f.Add(`{"queries":[{"q":3,"k":5},{"q":9,"k":5,"exclude":[9]}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"q":-1,"k":5}]}`)
	f.Add(`{"queries":[{"q":1,"k":-5}]}`)
	f.Add(`{"queries"`)
	f.Add(`null`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, New(sx), "/topk/batch", body)
	})
}
