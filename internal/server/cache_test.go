package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
	"kdash/internal/topk"
	"kdash/internal/wal"
)

// len reports the cache's entry count.
func (c *answerCache) len() int {
	n, _, _ := c.stats()
	return n
}

// TestCacheHitMatchesEngine checks cached answers are identical to
// engine answers, that only the hit says so, and that hit/miss counters
// advance — for /topk only: /proximity never consults the cache.
func TestCacheHitMatchesEngine(t *testing.T) {
	hPlain, ix := testHandler(t)
	h := New(ix, WithCache(8))

	want, wantBody := get(t, hPlain, "/topk?q=7&k=5")
	miss, missBody := get(t, h, "/topk?q=7&k=5")
	hit, hitBody := get(t, h, "/topk?q=7&k=5")
	if want.Code != http.StatusOK || miss.Code != http.StatusOK || hit.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d/%d", want.Code, miss.Code, hit.Code)
	}
	if _, ok := missBody["cached"]; ok {
		t.Errorf("miss claims to be cached: %s", miss.Body.String())
	}
	if string(hitBody["cached"]) != "true" {
		t.Errorf("hit does not say cached: %s", hit.Body.String())
	}
	if !bytes.Equal(wantBody["results"], missBody["results"]) || !bytes.Equal(wantBody["results"], hitBody["results"]) {
		t.Errorf("results differ:\nengine %s\nmiss   %s\nhit    %s", wantBody["results"], missBody["results"], hitBody["results"])
	}

	if rec, _ := get(t, h, "/proximity?q=7&u=9"); rec.Code != http.StatusOK {
		t.Fatalf("/proximity: %d", rec.Code)
	}
	rec, _ := get(t, h, "/statz")
	var statz struct {
		Cache struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int64 `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Cache.Misses != 1 || statz.Cache.Hits != 1 || statz.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want one miss, one hit, one entry", statz.Cache)
	}
	// 16 bytes per cached result plus 8 for the one shard the push
	// solved: whatever the graph's size, an entry is about 1 KB.
	if statz.Cache.Bytes <= 0 || statz.Cache.Bytes > 16*cachedK+8 {
		t.Errorf("cache bytes = %d, want within (0, %d]", statz.Cache.Bytes, 16*cachedK+8)
	}
}

// TestProximityIgnoresCache pins the bugfix: /proximity used to answer
// from a cached full vector on a hit and from the pair-weighted push on
// a miss — values that agree within tolerance, not in bits — so the
// same request answered differently before and after an unrelated
// /topk warmed the cache. It must return the same bytes cold, after
// warming q, and on a handler with no cache.
func TestProximityIgnoresCache(t *testing.T) {
	g := testutil.Clustered(200, 4, 5)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, cached := New(sx), New(sx, WithCache(16))
	rng := rand.New(rand.NewSource(3))
	for _, q := range rng.Perm(sx.N())[:8] {
		var pairs []string
		for j := 0; j < 12; j++ {
			pairs = append(pairs, fmt.Sprintf("/proximity?q=%d&u=%d", q, rng.Intn(sx.N())))
		}
		cold := make([]string, len(pairs))
		for j, url := range pairs {
			rec, _ := get(t, cached, url)
			cold[j] = rec.Body.String()
		}
		if rec, _ := get(t, cached, fmt.Sprintf("/topk?q=%d&k=5", q)); rec.Code != http.StatusOK {
			t.Fatalf("warming q=%d: %d", q, rec.Code)
		}
		for j, url := range pairs {
			warm, _ := get(t, cached, url)
			ref, _ := get(t, plain, url)
			if warm.Code != http.StatusOK || warm.Body.String() != cold[j] || ref.Body.String() != cold[j] {
				t.Fatalf("%s: cold %q, after warming %q, uncached %q", url, cold[j], warm.Body.String(), ref.Body.String())
			}
		}
	}
	if hits, misses := cached.cacheHits.Value(), cached.cacheMisses.Value(); hits != 0 || misses != 8 {
		t.Errorf("cache saw %d hits / %d misses, want 0 / 8: /proximity must not count as a lookup", hits, misses)
	}
}

// TestCachedServerKeepsItsCounters pins the bugfix: with a cache on,
// every /topk used to report all-zero stats, skip the /statz work
// counters, return a trace block with no steps and say "cached" on
// misses. Now a miss is a real traced, counted search and only a hit
// reports zero work. The sequence walks miss -> hit -> refill, where
// the refills are a k past the entry's depth and an exclusion set that
// knocks out more list members than the entry has to spare.
func TestCachedServerKeepsItsCounters(t *testing.T) {
	h := updatableHandler(t, WithCache(4)) // 120 nodes, 4 shards
	plain := updatableHandler(t)
	type resp struct {
		Results []refResult `json:"results"`
		Stats   refStats    `json:"stats"`
		Cached  bool        `json:"cached"`
		Trace   *refTrace   `json:"trace"`
	}
	// The exclusion set: the first 40 members of q=3's cached list, so
	// k=30 needs 70 deep and the 64-entry list cannot prove it.
	_, body := get(t, plain, "/topk?q=3&k=40")
	var top []refResult
	if err := json.Unmarshal(body["results"], &top); err != nil || len(top) != 40 {
		t.Fatalf("top-40 of q=3: %v (%d results)", err, len(top))
	}
	var ids []string
	for _, r := range top {
		ids = append(ids, fmt.Sprint(r.Node))
	}
	knockout := "&exclude=" + strings.Join(ids, ",")

	var work int64
	for _, tc := range []struct {
		name, url string
		hit       bool
		depth     int // entry depth afterwards
	}{
		{"cold miss", "/topk?q=3&k=10", false, cachedK},
		{"hit", "/topk?q=3&k=10", true, cachedK},
		{"hit at the entry's full depth", "/topk?q=3&k=64", true, cachedK},
		{"hit under exclusions the list absorbs", "/topk?q=3&k=20" + knockout, true, cachedK},
		{"refill: exclusions knock out too many members", "/topk?q=3&k=30" + knockout, false, 70},
		{"hit on the deeper entry", "/topk?q=3&k=30" + knockout, true, 70},
		{"refill: k past the entry", "/topk?q=3&k=80", false, 80},
		{"hit: smaller k is a prefix", "/topk?q=3&k=1", true, 80},
	} {
		rec, gotBody := get(t, h, tc.url+"&trace=1")
		want, wantBody := get(t, plain, tc.url)
		var got resp
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s: status %d/%d, %v", tc.name, rec.Code, want.Code, err)
		}
		if !bytes.Equal(gotBody["results"], wantBody["results"]) {
			t.Errorf("%s: results\n%s\nuncached\n%s", tc.name, gotBody["results"], wantBody["results"])
		}
		if got.Trace == nil || got.Cached != tc.hit || got.Trace.CacheHit != tc.hit {
			t.Fatalf("%s: cached=%v trace=%+v, want hit=%v", tc.name, got.Cached, got.Trace, tc.hit)
		}
		if tc.hit {
			if got.Stats != (refStats{}) || got.Trace.Solves != 0 || len(got.Trace.Steps) != 0 {
				t.Errorf("%s: a hit reports work: stats %+v, trace %+v", tc.name, got.Stats, got.Trace)
			}
		} else {
			if got.Stats.ProximityComputations == 0 || got.Trace.Solves == 0 || len(got.Trace.Steps) != got.Trace.Solves || got.Trace.SolveNS == 0 {
				t.Errorf("%s: a miss must be a real traced search: stats %+v, trace %+v", tc.name, got.Stats, got.Trace)
			}
			work += int64(got.Stats.ProximityComputations)
		}
		if e, ok := h.cache.get(3, 0); !ok || e.k != tc.depth {
			t.Errorf("%s: entry depth %d (found %v), want %d", tc.name, e.k, ok, tc.depth)
		}
	}
	if hits, misses := h.cacheHits.Value(), h.cacheMisses.Value(); hits != 5 || misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 5/3", hits, misses)
	}
	_, statz := get(t, h, "/statz")
	var counted struct {
		ProximityComputations int64 `json:"proximityComputations"`
	}
	if err := json.Unmarshal(statz["work"], &counted); err != nil || counted.ProximityComputations != work || work == 0 {
		t.Errorf("/statz work.proximityComputations = %d (%v), the misses reported %d", counted.ProximityComputations, err, work)
	}

	// Past maxCachedK the request runs as if there were no cache: no
	// lookup, no entry, same answer.
	deep := fmt.Sprintf("/topk?q=5&k=%d", maxCachedK+1)
	rec, recBody := get(t, h, deep)
	_, wantBody := get(t, plain, deep)
	if rec.Code != http.StatusOK || !bytes.Equal(recBody["results"], wantBody["results"]) {
		t.Errorf("bypass answer differs (status %d)", rec.Code)
	}
	if _, ok := h.cache.get(5, 0); ok || h.cacheHits.Value() != 5 || h.cacheMisses.Value() != 3 {
		t.Errorf("a request past maxCachedK touched the cache")
	}
}

// checkEntriesExact asserts every cached entry equals a fresh search on
// the handler's current engine. Call it only while nothing else touches
// the handler.
func checkEntriesExact(t *testing.T, h *Handler, tag string) {
	t.Helper()
	st := h.snap()
	for el := h.cache.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		want, _, err := st.engine.Search(e.q, core.SearchOptions{K: e.k})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(e.results) != fmt.Sprint(want) {
			t.Fatalf("%s: entry q=%d (shards %v) is not epoch %d's answer", tag, e.q, e.shards, st.epoch)
		}
	}
}

func entry(q, k int, scores ...float64) *cacheEntry {
	e := &cacheEntry{q: q, k: k, shards: []int{0}}
	for i, s := range scores {
		e.results = append(e.results, topk.Result{Node: 100 + i, Score: s})
	}
	return e
}

// TestCacheEntryAnswer checks what an entry can and cannot prove.
func TestCacheEntryAnswer(t *testing.T) {
	full := entry(1, 3, .5, .3, .2)        // 3 of 3: deeper answers unknown
	short := entry(1, 8, .5, .3, .2)       // 3 of 8: everything reachable
	ex := map[int]bool{101: true, 7: true} // knocks out the second result
	for _, tc := range []struct {
		name string
		e    *cacheEntry
		k    int
		ex   map[int]bool
		want []int
		ok   bool
	}{
		{"prefix", full, 2, nil, []int{100, 101}, true},
		{"whole list", full, 3, nil, []int{100, 101, 102}, true},
		{"too deep", full, 4, nil, nil, false},
		{"filtered prefix", full, 2, ex, []int{100, 102}, true},
		{"filter leaves too few", full, 3, ex, nil, false},
		{"complete list answers any k", short, 50, nil, []int{100, 101, 102}, true},
		{"complete list, filtered", short, 3, ex, []int{100, 102}, true},
	} {
		got, ok := tc.e.answer(tc.k, tc.ex)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		var nodes []int
		for _, r := range got {
			nodes = append(nodes, r.Node)
		}
		if fmt.Sprint(nodes) != fmt.Sprint(tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, nodes, tc.want)
		}
	}
}

// TestCacheEviction checks LRU order: capacity 2, three distinct nodes,
// oldest falls out.
func TestCacheEviction(t *testing.T) {
	c := newAnswerCache(2)
	c.put(entry(1, 4, 1), 0)
	c.put(entry(2, 4, 2), 0)
	if _, ok := c.get(1, 0); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(entry(3, 4, 3), 0)
	if _, ok := c.get(2, 0); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	if _, ok := c.get(1, 0); !ok {
		t.Error("refreshed entry 1 evicted")
	}
	if _, ok := c.get(3, 0); !ok {
		t.Error("new entry 3 missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Re-putting an existing key replaces, not duplicates, and the byte
	// count follows the payload: 16 per result + 8 per shard id.
	c.put(entry(1, 4, 10, 9), 0)
	if c.len() != 2 {
		t.Errorf("len after re-put = %d, want 2", c.len())
	}
	if e, _ := c.get(1, 0); len(e.results) != 2 || e.results[0].Score != 10 {
		t.Errorf("re-put did not replace value: %+v", e)
	}
	if _, bytes, evictions := c.stats(); bytes != (16*2+8)+(16+8) || evictions != 1 {
		t.Errorf("bytes = %d, evictions = %d, want %d and 1", bytes, evictions, (16*2+8)+(16+8))
	}
}

// TestCacheEpochInvalidation checks the swap semantics: a newer epoch
// flushes stale entries, a put computed under an older epoch is
// dropped rather than poisoning the new epoch, and retain carries over
// exactly the entries whose shard set avoids the dirty shards.
func TestCacheEpochInvalidation(t *testing.T) {
	c := newAnswerCache(4)
	c.put(entry(1, 4, 1), 0)
	c.flush(1)
	if _, ok := c.get(1, 1); ok {
		t.Error("stale entry survived the epoch flush")
	}
	// A racing old-epoch writer must not insert.
	c.put(entry(2, 4, 2), 0)
	if _, ok := c.get(2, 1); ok {
		t.Error("old-epoch put landed in the new epoch")
	}
	if c.len() != 0 {
		t.Errorf("len = %d, want 0", c.len())
	}
	// A get carrying a newer epoch than the cache flushes implicitly.
	c.put(entry(3, 4, 3), 1)
	if _, ok := c.get(3, 2); ok {
		t.Error("entry served across epochs")
	}
	if c.len() != 0 {
		t.Errorf("len after implicit flush = %d, want 0", c.len())
	}

	clean, dirty, unknown := entry(4, 4, 4), entry(5, 4, 5), entry(6, 4, 6)
	clean.shards, dirty.shards, unknown.shards = []int{0, 2}, []int{0, 1}, nil
	for _, e := range []*cacheEntry{clean, dirty, unknown} {
		c.put(e, 2)
	}
	c.retain(3, map[int]bool{1: true, 3: true})
	if _, ok := c.get(4, 3); !ok {
		t.Error("entry that solved only clean shards was dropped")
	}
	if _, ok := c.get(5, 3); ok {
		t.Error("entry that solved a dirty shard survived")
	}
	if _, ok := c.get(6, 3); ok {
		t.Error("entry with no recorded shards survived: it proves nothing")
	}
	if n, bytes, _ := c.stats(); n != 1 || bytes != 16+8*2 {
		t.Errorf("after retain: %d entries, %d bytes, want 1 and %d", n, bytes, 16+8*2)
	}
	c.retain(2, nil) // stale epoch: no-op
	if _, ok := c.get(4, 3); !ok {
		t.Error("a stale retain disturbed the cache")
	}
}

// TestCacheConcurrent hammers one cached handler with queries from many
// goroutines while single-shard updates swap epochs under them, so
// lookups, refills, racing old-epoch puts and the retention walk all
// interleave; the race detector vouches for the locking. Whatever the
// interleaving, no stale answer may be left behind: at quiescence every
// entry must equal a fresh search on the final engine.
func TestCacheConcurrent(t *testing.T) {
	g, home := weakRing(8, 20, 3)
	sx, err := shard.Build(g, shard.Options{Assignment: home, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx, WithCache(16))
	var wg sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	quiesce := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer quiesce()
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
				// Twelve nodes spread over the shards fit the cache, so
				// repeats hit; alternating depths make some requests refill
				// the entry another goroutine is reading.
				rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=%d", (w+i)%12*13, 3+(i%2)*70))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				served.Add(1)
			}
		}(w)
	}
	// Forty answers between swaps (and after the last): every epoch sees
	// misses, refills and hits, whatever the scheduler does.
	awaitServed := func() {
		for target := served.Load() + 40; served.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for u := 0; u < 16; u++ {
		awaitServed()
		c := u % 8 // an edge inside community c dirties shard c alone
		body := fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d,"weight":1.5}]}`, c*20+u%20, c*20+(u+7)%20)
		if rec := post(t, h, "/update", body); rec.Code != http.StatusOK {
			t.Fatalf("update %d: status %d (%s)", u, rec.Code, rec.Body.String())
		}
	}
	awaitServed()
	quiesce()
	checkEntriesExact(t, h, "at quiescence")
	if h.cache.len() == 0 || h.cacheHits.Value() == 0 {
		t.Errorf("%d entries, %d hits: the hammer never exercised the cache", h.cache.len(), h.cacheHits.Value())
	}
}

// weakRing builds comms communities of size nodes each, joined in a
// bidirectional ring by cut edges seven orders of magnitude lighter
// than the edges inside a community, and the node -> community map. A
// cut crossing then scales a query's mass by about 1e-8, so mass two
// communities away from the query is below the push's 1e-15 tolerance:
// that shard receives residual and is pruned, never solved — the case
// the cache's retention rule is about.
func weakRing(comms, size int, seed int64) (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := comms * size
	b := graph.NewBuilder(n)
	add := func(u, v int, w float64) {
		if err := b.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	}
	home := make([]int, n)
	for u := range home {
		c := u / size
		home[u] = c
		add(u, c*size+(u+1)%size, 1) // a cycle keeps the community strongly connected
		for i := 0; i < 3; i++ {
			add(u, c*size+rng.Intn(size), 0.5+rng.Float64())
		}
		if u%size < 2 && comms > 1 {
			for _, next := range []int{(c + 1) % comms, (c + comms - 1) % comms} {
				add(u, next*size+rng.Intn(size), 1e-7)
			}
		}
	}
	return b.Build(), home
}

// TestPrunedShardRetention is the connected-graph case the solved-shard
// rule enables (TestSelectiveCacheInvalidation covers disconnected
// components): an update that dirties a shard the query's push merely
// pruned leaves the entry in place and still exact; one that dirties a
// shard the push solved drops it.
func TestPrunedShardRetention(t *testing.T) {
	g, home := weakRing(4, 30, 11)
	sx, err := shard.Build(g, shard.Options{Assignment: home, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const q = 5 // shard 0: the push solves 0 and its ring neighbours 1 and 3, and prunes 2
	var solved []int
	if _, _, err := sx.Search(q, core.SearchOptions{K: 5, SolvedShards: &solved}); err != nil {
		t.Fatal(err)
	}
	if _, qs, _ := sx.TopK(q, 5); qs.ShardsPruned != 1 || fmt.Sprint(solved) != "[0 1 3]" {
		t.Fatalf("test premise broken: pruned %d, solved %v; want shard 2 pruned and [0 1 3] solved", qs.ShardsPruned, solved)
	}
	h := New(sx, WithCache(8))
	if rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q)); rec.Code != http.StatusOK {
		t.Fatalf("warm: %d", rec.Code)
	}

	// An edge inside shard 2 dirties exactly the pruned shard.
	rec := post(t, h, "/update", `{"addEdges":[{"from":61,"to":75,"weight":2}]}`)
	var ur updateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil || rec.Code != http.StatusOK || ur.ShardsRebuilt != 1 {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	kept, keptBody := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q))
	if string(keptBody["cached"]) != "true" || h.cacheHits.Value() != 1 {
		t.Fatalf("entry dropped by an update to a shard its push never solved: %s", kept.Body.String())
	}
	_, fresh := get(t, New(h.snap().engine), fmt.Sprintf("/topk?q=%d&k=5", q))
	if !bytes.Equal(keptBody["results"], fresh["results"]) {
		t.Fatalf("surviving entry is not the new epoch's answer:\n%s\n%s", keptBody["results"], fresh["results"])
	}

	// An edge inside shard 1 dirties a shard the push solved.
	if rec := post(t, h, "/update", `{"addEdges":[{"from":31,"to":45,"weight":2}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	misses0 := h.cacheMisses.Value()
	_, dropped := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q))
	if _, ok := dropped["cached"]; ok || h.cacheMisses.Value() != misses0+1 {
		t.Fatalf("entry survived an update to a shard its push solved")
	}
}

// TestCacheDifferentialChain is the cache's acceptance harness, in the
// style of TestWALDifferentialChain: a random update chain driven
// through a cached handler (synchronous and WAL mode) and an uncached
// reference, over 1, 2 and 8 shards of a graph whose pushes prune. At
// every epoch the two must return byte-identical results for ks on
// both sides of cachedK, with and without exclusions, cold and warm;
// and right after every swap, every entry the cache kept must equal a
// fresh search on the new engine.
func TestCacheDifferentialChain(t *testing.T) {
	const comms, size = 8, 30
	ks := []int{1, 5, 10, 64, 65, 200}
	for _, shards := range []int{1, 2, 8} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/wal=%v", shards, durable), func(t *testing.T) {
				g, community := weakRing(comms, size, int64(shards))
				home := make([]int, len(community))
				for u, c := range community {
					home[u] = c * shards / comms
				}
				sx, err := shard.Build(g, shard.Options{Assignment: home, Reorder: reorder.Hybrid, Seed: 1, StalenessLimit: 8})
				if err != nil {
					t.Fatal(err)
				}
				ref := New(sx)
				var h *Handler
				if durable {
					h = durableHandler(t, sx, WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone}, WithCache(12))
				} else {
					h = New(sx, WithCache(12))
				}
				rng := rand.New(rand.NewSource(int64(31 + shards)))
				hot := rng.Perm(sx.N())[:10] // re-read every epoch, so survivors get served
				kept, dropped := 0, 0
				for epoch := 0; epoch <= 12; epoch++ {
					if epoch > 0 {
						before := h.cache.len()
						d := testutil.RandomDelta(rng, ref.snap().engine.Graph(), 2)
						req := updateRequest{AddNodes: d.AddedNodes()}
						for _, e := range d.Edges() {
							if e.Weight > 0 {
								req.AddEdges = append(req.AddEdges, edgeJSON{From: e.From, To: e.To, Weight: e.Weight})
							} else {
								req.RemoveEdges = append(req.RemoveEdges, edgeJSON{From: e.From, To: e.To})
							}
						}
						blob, _ := json.Marshal(req)
						if rec := post(t, ref, "/update", string(blob)); rec.Code != http.StatusOK {
							t.Fatalf("epoch %d: reference update: %d %s", epoch, rec.Code, rec.Body.String())
						}
						if durable {
							awaitApplied(t, h, postUpdateWAL(t, h, &req))
						} else if rec := post(t, h, "/update", string(blob)); rec.Code != http.StatusOK {
							t.Fatalf("epoch %d: update: %d %s", epoch, rec.Code, rec.Body.String())
						}
						// Survivors, checked before any read can refill them.
						checkEntriesExact(t, h, fmt.Sprintf("epoch %d: survived the swap", epoch))
						kept += h.cache.len()
						dropped += before - h.cache.len()
					}
					n := h.snap().engine.N()
					for _, q := range append(rng.Perm(n)[:4], hot...) {
						_, top := get(t, ref, fmt.Sprintf("/topk?q=%d&k=12", q))
						var members []refResult
						if err := json.Unmarshal(top["results"], &members); err != nil {
							t.Fatal(err)
						}
						exclude := fmt.Sprintf("&exclude=%d,%d", rng.Intn(n), n+3)
						for _, m := range members[:len(members)/2] {
							exclude += fmt.Sprintf(",%d", m.Node)
						}
						for _, k := range ks {
							for _, suffix := range []string{"", exclude} {
								url := fmt.Sprintf("/topk?q=%d&k=%d%s", q, k, suffix)
								got, gotBody := get(t, h, url)
								want, wantBody := get(t, ref, url)
								if got.Code != http.StatusOK || want.Code != http.StatusOK {
									t.Fatalf("epoch %d: %s: status %d/%d", epoch, url, got.Code, want.Code)
								}
								if !bytes.Equal(gotBody["results"], wantBody["results"]) {
									t.Fatalf("epoch %d: %s (cached=%s):\n%s\nuncached:\n%s", epoch, url, gotBody["cached"], gotBody["results"], wantBody["results"])
								}
							}
						}
					}
				}
				t.Logf("hits %d, misses %d; entries kept %d / dropped %d across swaps", h.cacheHits.Value(), h.cacheMisses.Value(), kept, dropped)
				if h.cacheHits.Value() == 0 || h.cacheMisses.Value() == 0 {
					t.Errorf("hits/misses = %d/%d: the chain must exercise both", h.cacheHits.Value(), h.cacheMisses.Value())
				}
				// One shard is always dirty, so nothing can survive there;
				// with eight, the chain must see the rule decide both ways.
				if shards == 8 && (kept == 0 || dropped == 0) {
					t.Errorf("entries kept/dropped across swaps = %d/%d: the retention rule never decided both ways", kept, dropped)
				}
				if shards == 1 && kept != 0 {
					t.Errorf("%d entries survived swaps of a single-shard engine", kept)
				}
			})
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so an allocation count sees the handler's allocations alone.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestTopKCacheHitAllocs is the allocation regression for a cache hit:
// the query string is parsed once per request and the body appended
// into a pooled buffer, so a hit allocates its status recorder and the
// parsed query values, and nothing per result.
func TestTopKCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; counts are asserted in the regular build")
	}
	_, ix := testHandler(t)
	h := New(ix, WithCache(4))
	req := httptest.NewRequest(http.MethodGet, "/topk?q=7&k=10", nil)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		clear(w.header)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	serve() // the miss that fills the entry
	serve()
	avg := testing.AllocsPerRun(300, serve)
	if hits := h.cacheHits.Value(); hits != 302 {
		t.Fatalf("%d cache hits, want every request after the first to hit", hits)
	}
	t.Logf("a cache hit allocates %.2f objects", avg)
	// 1 status recorder + 4 for the parsed query (map, its group, one
	// value slice per key).
	if avg > 5 {
		t.Errorf("a cache hit allocates %.2f objects, want <= 5", avg)
	}
}

// benchTopK drives /topk through the handler on a recorder. Request -1
// is served untimed, so the smoke's single iteration already runs in
// steady state (a warm entry for the hit path, warm engine pools for
// the miss path).
func benchTopK(b *testing.B, h *Handler, url func(i int) string) {
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url(i), nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// benchEngine is the trusted benchmark's graph shape (bench/README) at
// a tenth of its size.
func benchEngine(b *testing.B) *shard.ShardedIndex {
	sx, err := shard.Build(gen.CommunityOverlay(5000, 3, 50, 0.995, 1), shard.Options{Shards: 8, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sx
}

// BenchmarkTopKCacheHit is the cached server's fast path: one lookup,
// a prefix of the stored list, the JSON encode.
func BenchmarkTopKCacheHit(b *testing.B) {
	h := New(benchEngine(b), WithCache(4))
	benchTopK(b, h, func(int) string { return "/topk?q=7&k=10" })
}

// BenchmarkTopKCacheMiss is its slow path: every request evicts (one
// entry, alternating nodes), so each runs the pruned search at cachedK
// and inserts.
func BenchmarkTopKCacheMiss(b *testing.B) {
	h := New(benchEngine(b), WithCache(1))
	benchTopK(b, h, func(i int) string { return fmt.Sprintf("/topk?q=%d&k=10", 7+(i+2)%2) }) // +2: i starts at -1
}
