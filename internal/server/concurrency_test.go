package server

// The query hot path hands every request a pooled per-query state
// (core's search workspaces and sparse solvers, shard's push state).
// These tests drive a one-shard and a four-shard engine through the
// HTTP surface from many goroutines and assert byte-identical responses against a
// sequential pass — the end-to-end check that pooled checkout per
// request is concurrent-safe and leak-free. Run with -race in CI.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

func hammer(t *testing.T, h *Handler, urls []string) {
	t.Helper()
	want := make([]string, len(urls))
	for i, url := range urls {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 15; rep++ {
				i := (w*5 + rep) % len(urls)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[i], nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d under concurrency", urls[i], rec.Code)
					return
				}
				if rec.Body.String() != want[i] {
					errs <- fmt.Errorf("%s: concurrent response %q != sequential %q", urls[i], rec.Body.String(), want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func queryURLs(n int) []string {
	urls := make([]string, 0, 3*8)
	for q := 0; q < 8; q++ {
		urls = append(urls,
			fmt.Sprintf("/topk?q=%d&k=5", q*7%n),
			fmt.Sprintf("/proximity?q=%d&u=%d", q*3%n, (q*11+1)%n),
			fmt.Sprintf("/topk?q=%d&k=3&exclude=%d", q*13%n, q),
		)
	}
	return urls
}

func TestConcurrentRequestsOneShard(t *testing.T) {
	h, ix := testHandler(t)
	hammer(t, h, queryURLs(ix.N()))
}

func TestConcurrentRequestsSharded(t *testing.T) {
	h, sx := shardedHandler(t)
	hammer(t, h, queryURLs(sx.N()))
}
