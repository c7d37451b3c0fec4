package server

// Durable-mode tests: the randomized differential harness the WAL
// overlay's exactness contract is pinned by (bit-identical answers to a
// synchronous oracle at every point of a random update chain, including
// after a simulated crash + replay), plus the ack-path validation,
// concurrency, snapshot-recovery, selective cache invalidation and
// observability surfaces.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
	"kdash/internal/wal"
)

// walBuildOpts are the build options every durable-mode test shares;
// Build is deterministic in (graph, options), so building twice yields
// bit-identical engines — the handler's and the oracle's.
var walBuildOpts = shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1, StalenessLimit: 8}

// durableHandler opens a WAL-mode handler over the engine with a fast
// compactor tick and registers cleanup.
func durableHandler(t *testing.T, engine shard.Engine, cfg WALConfig, opts ...Option) *Handler {
	t.Helper()
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = 2 * time.Millisecond
	}
	h, err := NewDurable(engine, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// awaitApplied blocks until the compactor has folded seq into the
// published engine — the step-lock the differential chain uses so each
// drain holds exactly one batch and the WAL engine walks the same
// ApplyDelta sequence as the oracle.
func awaitApplied(t *testing.T, h *Handler, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h.wals.mu.Lock()
		applied := h.wals.appliedSeq
		h.wals.mu.Unlock()
		if applied >= seq {
			return
		}
		h.wals.kickCompact()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("wal: seq %d never applied", seq)
}

// randomOps draws a random valid update request against g: edge adds,
// reweights, removals of existing edges, and (when withNodes) node
// insertions. Duplicate (from,to) pairs are avoided so the batch is
// order-insensitive within each op kind.
func randomOps(rng *rand.Rand, g *graph.Graph, withNodes bool) *updateRequest {
	req := &updateRequest{}
	if withNodes && rng.Intn(3) == 0 {
		req.AddNodes = 1 + rng.Intn(2)
	}
	n := g.N() + req.AddNodes
	edges := g.Edges()
	seen := map[[2]int]bool{}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		if rng.Intn(3) == 0 && len(edges) > 0 {
			for tries := 0; tries < 8; tries++ {
				e := edges[rng.Intn(len(edges))]
				k := [2]int{e.From, e.To}
				if !seen[k] {
					seen[k] = true
					req.RemoveEdges = append(req.RemoveEdges, edgeJSON{From: e.From, To: e.To})
					break
				}
			}
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		k := [2]int{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		req.AddEdges = append(req.AddEdges, edgeJSON{From: u, To: v, Weight: 0.5 + rng.Float64()})
	}
	if req.AddNodes == 0 && len(req.AddEdges)+len(req.RemoveEdges) == 0 {
		req.AddEdges = append(req.AddEdges, edgeJSON{From: rng.Intn(n), To: rng.Intn(n), Weight: 1.25})
	}
	return req
}

// postUpdateWAL posts req and returns the acked WAL sequence number.
func postUpdateWAL(t *testing.T, h *Handler, req *updateRequest) uint64 {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/update", string(blob))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("durable update: status %d, want 202 (%s)", rec.Code, rec.Body.String())
	}
	var resp walUpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq == 0 {
		t.Fatalf("durable update acked seq 0: %s", rec.Body.String())
	}
	return resp.Seq
}

// compareAnswers asserts the handler's /topk answers are bit-identical
// to the oracle's — same nodes, same score bits (JSON float64 encoding
// round-trips exactly, so == on the decoded values is the bit test).
func compareAnswers(t *testing.T, h *Handler, oracle *shard.ShardedIndex, rng *rand.Rand, tag string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		q := rng.Intn(oracle.N())
		rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=8", q))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /topk?q=%d: status %d (%s)", tag, q, rec.Code, rec.Body.String())
		}
		var resp struct {
			Results []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("%s: q=%d: %d results, oracle has %d", tag, q, len(resp.Results), len(want))
		}
		for j, r := range resp.Results {
			if r.Node != want[j].Node || r.Score != want[j].Score {
				t.Fatalf("%s: q=%d rank %d: (%d, %v) vs oracle (%d, %v)",
					tag, q, j, r.Node, r.Score, want[j].Node, want[j].Score)
			}
		}
	}
}

// TestWALDifferentialChain is the acceptance harness: a random update
// chain through the durable path, step-locked so each drain holds one
// batch, compared bit-identically against a synchronous oracle after
// every step. Midway the handler "crashes" (Close) and is reopened over
// a freshly built base engine — recovery replays the whole log through
// the merged fast path, which must land on the same bits (edge-only
// batches keep shard homes pinned, and each part's factors are a
// deterministic function of the final graph restricted to the part).
// The chain then continues, now with node insertions, on the recovered
// handler.
func TestWALDifferentialChain(t *testing.T) {
	g := testutil.Clustered(150, 4, 3)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	cfg := WALConfig{Dir: walDir, Sync: wal.SyncNone}
	h := durableHandler(t, base, cfg)

	rng := rand.New(rand.NewSource(7))
	step := func(i int, withNodes bool) {
		req := randomOps(rng, oracle.Graph(), withNodes)
		seq := postUpdateWAL(t, h, req)
		d, err := buildDelta(oracle.N(), req)
		if err != nil {
			t.Fatalf("step %d: oracle delta: %v", i, err)
		}
		if oracle, _, err = oracle.Apply(d); err != nil {
			t.Fatalf("step %d: oracle apply: %v", i, err)
		}
		awaitApplied(t, h, seq)
		compareAnswers(t, h, oracle, rng, fmt.Sprintf("step %d", i))
	}

	for i := 1; i <= 6; i++ {
		step(i, false) // edge ops only: keeps the merged replay bit-identical
	}

	// Simulated crash: drop the handler, rebuild the base engine from
	// scratch (deterministic, so bit-identical to the original), and
	// recover from the same log.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	base2, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	h = durableHandler(t, base2, cfg)
	h.wals.mu.Lock()
	replayed := h.wals.replayed
	h.wals.mu.Unlock()
	if replayed != 6 {
		t.Fatalf("recovery replayed %d records, want 6", replayed)
	}
	compareAnswers(t, h, oracle, rng, "post-crash")

	for i := 7; i <= 12; i++ {
		step(i, true) // node insertions join the chain after recovery
	}
}

// TestWALConcurrentUpdates pins the durable path's write safety: N
// concurrent single-edge updates must all ack, all survive into the
// published graph, and the barrier must cover the last of them.
func TestWALConcurrentUpdates(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := durableHandler(t, base, WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone})

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d,"weight":%g}]}`, i, (i+40)%120, 1+float64(i)/100)
			rec := post(t, h, "/update", body)
			if rec.Code != http.StatusAccepted {
				t.Errorf("writer %d: status %d (%s)", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	awaitApplied(t, h, uint64(writers))

	pub := h.snap().engine.Graph()
	for i := 0; i < writers; i++ {
		if !pub.HasEdge(i, (i+40)%120) {
			t.Errorf("edge (%d,%d) lost", i, (i+40)%120)
		}
	}
	h.wals.mu.Lock()
	acked := h.wals.acked
	h.wals.mu.Unlock()
	if acked != writers {
		t.Errorf("acked %d batches, want %d", acked, writers)
	}
}

// TestSyncConcurrentUpdatesAllSurvive is the synchronous-path
// regression for the lost-update race: N concurrent POST /update
// requests must all apply — the epoch advances once per batch and no
// batch overwrites another's successor.
func TestSyncConcurrentUpdatesAllSurvive(t *testing.T) {
	h := updatableHandler(t)
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"addEdges":[{"from":%d,"to":%d,"weight":1.5}]}`, i, (i+60)%120)
			rec := post(t, h, "/update", body)
			if rec.Code != http.StatusOK {
				t.Errorf("writer %d: status %d (%s)", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	srec, _ := get(t, h, "/statz")
	var statz struct {
		Updates map[string]int64 `json:"updates"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Updates["applied"] != writers || statz.Updates["epoch"] != writers {
		t.Fatalf("lost update: applied=%d epoch=%d, want %d/%d",
			statz.Updates["applied"], statz.Updates["epoch"], writers, writers)
	}
	pub := h.snap().engine.Graph()
	for i := 0; i < writers; i++ {
		if !pub.HasEdge(i, (i+60)%120) {
			t.Errorf("edge (%d,%d) lost", i, (i+60)%120)
		}
	}
}

// TestWALValidationOverlay pins ack-time validation against the virtual
// state: an acked-but-unapplied edge is removable, a twice-removed edge
// is a 400, and nothing invalid ever reaches the log.
func TestWALValidationOverlay(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	// A slow tick so the adds stay pending while the removals validate.
	h := durableHandler(t, base, WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone, CompactInterval: time.Hour})

	if rec := post(t, h, "/update", `{"addEdges":[{"from":1,"to":100,"weight":2}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("add: %d (%s)", rec.Code, rec.Body.String())
	}
	// The edge exists only in the memtable overlay; removing it must ack.
	if rec := post(t, h, "/update", `{"removeEdges":[{"from":1,"to":100}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("remove pending edge: %d (%s)", rec.Code, rec.Body.String())
	}
	// Now it is gone in the virtual state: a second removal is a 400.
	if rec := post(t, h, "/update", `{"removeEdges":[{"from":1,"to":100}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("double remove: %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	// Removing an edge that never existed anywhere is a 400 too.
	au, av := -1, -1
	for u := 0; u < g.N() && au < 0; u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && !g.HasEdge(u, v) && !(u == 1 && v == 100) {
				au, av = u, v
				break
			}
		}
	}
	if rec := post(t, h, "/update", fmt.Sprintf(`{"removeEdges":[{"from":%d,"to":%d}]}`, au, av)); rec.Code != http.StatusBadRequest {
		t.Fatalf("remove of absent edge (%d,%d): %d, want 400 (%s)", au, av, rec.Code, rec.Body.String())
	}
	// Range validation happens against the virtual node count.
	if rec := post(t, h, "/update", `{"addEdges":[{"from":0,"to":5000}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range add: %d, want 400", rec.Code)
	}
	// Only the two valid batches reached the log.
	if last := h.wals.log.LastSeq(); last != 2 {
		t.Fatalf("log holds %d records, want 2", last)
	}
}

// TestWALSnapshotRecovery drives durable compaction end to end: updates
// flow, snapshots land in SnapshotDir with a manifest-v5 WAL stamp, the
// log truncates, and a restart from LatestSnapshot + the remaining log
// reproduces the oracle bit-identically.
func TestWALSnapshotRecovery(t *testing.T) {
	g := testutil.Clustered(150, 4, 5)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	walDir, snapDir := t.TempDir(), t.TempDir()
	cfg := WALConfig{Dir: walDir, Sync: wal.SyncNone, SnapshotDir: snapDir, SnapshotEvery: 1}
	h := durableHandler(t, base, cfg)

	rng := rand.New(rand.NewSource(11))
	var lastSeq uint64
	for i := 1; i <= 4; i++ {
		req := randomOps(rng, oracle.Graph(), false)
		lastSeq = postUpdateWAL(t, h, req)
		d, err := buildDelta(oracle.N(), req)
		if err != nil {
			t.Fatal(err)
		}
		if oracle, _, err = oracle.Apply(d); err != nil {
			t.Fatal(err)
		}
		awaitApplied(t, h, lastSeq)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	path, ok := LatestSnapshot(snapDir)
	if !ok {
		t.Fatal("no snapshot after 4 compactions with SnapshotEvery=1")
	}
	loaded, err := shard.Open(path, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.WALSeq() == 0 {
		t.Fatal("snapshot carries no WAL stamp")
	}
	h2 := durableHandler(t, loaded, cfg)
	h2.wals.mu.Lock()
	replayed := h2.wals.replayed
	h2.wals.mu.Unlock()
	if replayed != int64(lastSeq-loaded.WALSeq()) {
		t.Fatalf("replayed %d records, want %d (stamp %d, last %d)",
			replayed, lastSeq-loaded.WALSeq(), loaded.WALSeq(), lastSeq)
	}
	compareAnswers(t, h2, oracle, rng, "post-snapshot-restart")
}

// TestWALReplaySkipsOnlyBadRecords replays a log whose middle record
// cannot apply (it removes an edge that is not there): recovery stages
// each record in log order through the same validation a live post
// takes, so the bad record fails to stage and is dropped (counted in
// batchesDropped) while the first and last are staged, and the one
// recovery drain applies them exactly once each — the recovered graph
// is the one applying the good records in order gives.
func TestWALReplaySkipsOnlyBadRecords(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	var absent [][2]int
	for u := 0; len(absent) < 3; u++ {
		if v := (u + 60) % g.N(); !g.HasEdge(u, v) {
			absent = append(absent, [2]int{u, v})
		}
	}
	a, b, c := g.NewDelta(), g.NewDelta(), g.NewDelta()
	if err := a.AddEdge(absent[0][0], absent[0][1], 2); err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveEdge(absent[1][0], absent[1][1]); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(absent[2][0], absent[2][1], 3); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*graph.Delta{a, b, c} {
		if _, err := log.Append(d.AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	h := durableHandler(t, base, WALConfig{Dir: dir, Sync: wal.SyncNone})
	h.wals.mu.Lock()
	replayed, dropped := h.wals.replayed, h.wals.batchesDropped
	h.wals.mu.Unlock()
	if replayed != 2 || dropped != 1 {
		t.Fatalf("replayed %d, dropped %d: want 2 and 1", replayed, dropped)
	}
	oracle, _, err := base.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	if oracle, _, err = oracle.Apply(c); err != nil {
		t.Fatal(err)
	}
	got := h.snap().engine.Graph()
	for _, e := range absent {
		if got.HasEdge(e[0], e[1]) != oracle.Graph().HasEdge(e[0], e[1]) {
			t.Errorf("edge %v: recovered %v, oracle %v", e, got.HasEdge(e[0], e[1]), oracle.Graph().HasEdge(e[0], e[1]))
		}
	}
	compareAnswers(t, h, oracle, rand.New(rand.NewSource(1)), "replay with a bad record")
}

// TestSelectiveCacheInvalidation pins selective retention on
// disconnected components: a cached answer whose push solved only
// clean shards survives the epoch swap and is served bit-identically,
// while entries that solved the dirty shard are dropped. Two
// disconnected components with a pinned assignment keep each query
// inside its own shard. (TestPrunedShardRetention is the connected
// case.)
func TestSelectiveCacheInvalidation(t *testing.T) {
	g := testutil.Disconnected(120, 2, 9)
	home := make([]int, 120)
	for i := range home {
		home[i] = i / 60
	}
	sx, err := shard.Build(g, shard.Options{Assignment: home, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx, WithCache(8))

	warm := func(q int) []byte {
		t.Helper()
		if rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q)); rec.Code != http.StatusOK {
			t.Fatalf("warm q=%d: %d", q, rec.Code)
		}
		rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q))
		var resp struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("q=%d not cached after warm: %s", q, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	before5 := warm(5) // component/shard 0
	warm(70)           // component/shard 1

	// Mutate component 1 only: shard 1 is dirty, shard 0 untouched.
	if rec := post(t, h, "/update", `{"addEdges":[{"from":70,"to":95,"weight":3}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update: %d (%s)", rec.Code, rec.Body.String())
	}

	// The clean-shard entry survives the swap — the post-update read is a
	// cache hit — and serves the same bits it did before the update.
	hits0 := h.cacheHits.Value()
	rec5, _ := get(t, h, "/topk?q=5&k=5")
	if h.cacheHits.Value() != hits0+1 {
		t.Fatalf("clean-shard cache entry flushed by a disjoint update (hits %d -> %d): %s",
			hits0, h.cacheHits.Value(), rec5.Body.String())
	}
	var after5, want5 struct {
		Results []struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec5.Body.Bytes(), &after5); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(before5, &want5); err != nil {
		t.Fatal(err)
	}
	if len(after5.Results) != len(want5.Results) {
		t.Fatalf("surviving entry changed size: %d vs %d", len(after5.Results), len(want5.Results))
	}
	for i := range want5.Results {
		if after5.Results[i] != want5.Results[i] {
			t.Fatalf("surviving entry drifted at rank %d: %+v vs %+v", i, after5.Results[i], want5.Results[i])
		}
	}

	// The dirty-shard entry is gone: the next read is a miss and
	// recomputes against the new engine.
	misses0 := h.cacheMisses.Value()
	rec70, _ := get(t, h, "/topk?q=70&k=5")
	if h.cacheMisses.Value() != misses0+1 {
		t.Fatalf("dirty-shard cache entry survived the update: %s", rec70.Body.String())
	}
	// And the recomputed answer reflects the new edge: node 95 now ranks
	// directly under the query's self-score.
	var after70 struct {
		Results []struct {
			Node int `json:"node"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec70.Body.Bytes(), &after70); err != nil {
		t.Fatal(err)
	}
	if len(after70.Results) < 2 || after70.Results[1].Node != 95 {
		t.Errorf("post-update answer for q=70 does not rank the new edge's target: %+v", after70.Results)
	}
}

// TestQueryBudget pins the deadline knobs: a bad ?budget= is a 400, a
// generous one a 200, a sub-solve one a 499 that counts toward the
// cancellation metric — and WithDefaultTimeout applies the same bound
// without the query parameter.
func TestQueryBudget(t *testing.T) {
	h := updatableHandler(t)
	for _, raw := range []string{"nope", "-5ms", "0s"} {
		rec, _ := get(t, h, "/topk?q=1&k=3&budget="+raw)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("budget=%q: status %d, want 400", raw, rec.Code)
		}
	}
	if rec, _ := get(t, h, "/topk?q=1&k=3&budget=30s"); rec.Code != http.StatusOK {
		t.Errorf("generous budget: status %d (%s)", rec.Code, rec.Body.String())
	}
	rec, _ := get(t, h, "/topk?q=1&k=3&budget=1ns")
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("1ns budget: status %d, want 499 (%s)", rec.Code, rec.Body.String())
	}
	srec, _ := get(t, h, "/statz")
	var statz struct {
		Queries map[string]int64 `json:"queries"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Queries["cancelled"] < 1 {
		t.Errorf("cancelled counter not bumped: %+v", statz.Queries)
	}

	hd := updatableHandler(t, WithDefaultTimeout(time.Nanosecond))
	if rec, _ := get(t, hd, "/topk?q=1&k=3"); rec.Code != statusClientClosedRequest {
		t.Errorf("default timeout: status %d, want 499 (%s)", rec.Code, rec.Body.String())
	}
	// An explicit budget overrides the tight default.
	if rec, _ := get(t, hd, "/topk?q=1&k=3&budget=30s"); rec.Code != http.StatusOK {
		t.Errorf("budget override of default timeout: status %d (%s)", rec.Code, rec.Body.String())
	}

	// A cache miss is the ordinary search under the request's context,
	// so budgets cancel it too.
	hc := updatableHandler(t, WithCache(4))
	if rec, _ := get(t, hc, "/topk?q=1&k=3&budget=1ns"); rec.Code != statusClientClosedRequest {
		t.Errorf("1ns budget on cache miss: status %d, want 499 (%s)", rec.Code, rec.Body.String())
	}
	// A cache hit serves without solving, so it survives any budget.
	if rec, _ := get(t, hc, "/topk?q=1&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("warming query: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec, _ := get(t, hc, "/topk?q=1&k=3&budget=1ns"); rec.Code != http.StatusOK {
		t.Errorf("1ns budget on cache hit: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

// TestQueryBudgetCoversEveryQuery: /proximity and /personalized run
// the push under the request's context as /topk does, so a sub-solve
// budget or default timeout answers 499 on all three and a generous
// budget 200.
func TestQueryBudgetCoversEveryQuery(t *testing.T) {
	const personalized = `{"seeds":{"7":1,"44":3},"k":3}`
	send := func(h http.Handler, path string) *httptest.ResponseRecorder {
		if strings.HasPrefix(path, "/personalized") {
			return post(t, h, path, personalized)
		}
		rec, _ := get(t, h, path)
		return rec
	}
	h := updatableHandler(t)
	hd := updatableHandler(t, WithDefaultTimeout(time.Nanosecond))
	for _, path := range []string{"/topk?q=7&k=5", "/proximity?q=7&u=9", "/personalized"} {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		if rec := send(h, path+sep+"budget=1ns"); rec.Code != statusClientClosedRequest {
			t.Errorf("%s with a 1ns budget: status %d, want 499 (%s)", path, rec.Code, rec.Body.String())
		}
		if rec := send(h, path+sep+"budget=30s"); rec.Code != http.StatusOK {
			t.Errorf("%s with a generous budget: status %d (%s)", path, rec.Code, rec.Body.String())
		}
		if rec := send(hd, path); rec.Code != statusClientClosedRequest {
			t.Errorf("%s under a 1ns default timeout: status %d, want 499 (%s)", path, rec.Code, rec.Body.String())
		}
	}
}

// TestWALObservability checks the /statz wal block and the /metrics wal
// series exist and carry the log's position.
func TestWALObservability(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := durableHandler(t, base, WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone})
	seq := postUpdateWAL(t, h, &updateRequest{AddEdges: []edgeJSON{{From: 0, To: 90, Weight: 2}}})
	awaitApplied(t, h, seq)

	srec, _ := get(t, h, "/statz")
	var statz struct {
		WAL map[string]json.RawMessage `json:"wal"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.WAL == nil {
		t.Fatalf("statz has no wal block: %s", srec.Body.String())
	}
	for _, key := range []string{"ackedSeq", "appliedSeq", "acked", "compactions", "fsyncPolicy", "segments", "lastSeq"} {
		if _, ok := statz.WAL[key]; !ok {
			t.Errorf("statz wal block missing %q", key)
		}
	}
	if string(statz.WAL["ackedSeq"]) != "1" || string(statz.WAL["appliedSeq"]) != "1" {
		t.Errorf("wal seqs = %s/%s, want 1/1", statz.WAL["ackedSeq"], statz.WAL["appliedSeq"])
	}

	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	body := mrec.Body.String()
	for _, series := range []string{"kdash_wal_appends_total", "kdash_wal_acked_seq 1", "kdash_wal_applied_seq 1", "kdash_wal_compactions_total"} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestStatzEpochCompactionsPaired pins the /statz capture pairing in
// durable mode: the engine snapshot and the WAL counters are taken
// inside one compactor critical section, so a document where no apply
// has failed always satisfies updates.epoch == wal.compactions (each
// successful drain advances both by exactly one). Before the pairing,
// /statz read the engine snapshot first and the WAL block later; a
// publish landing between the two produced a torn document whose epoch
// lagged its own compactions counter — here a poller races /statz and
// /metrics (kdash_epoch against kdash_wal_compactions_total) against a
// hammered compactor and rejects any torn read.
func TestStatzEpochCompactionsPaired(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	base, err := shard.Build(g, walBuildOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := durableHandler(t, base, WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone, CompactInterval: time.Millisecond})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodGet, "/statz", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var doc struct {
				Updates struct {
					Epoch int64 `json:"epoch"`
				} `json:"updates"`
				WAL struct {
					Compactions int64 `json:"compactions"`
					ApplyErrors int64 `json:"applyErrors"`
				} `json:"wal"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Errorf("statz decode: %v", err)
				return
			}
			if doc.WAL.ApplyErrors == 0 && doc.Updates.Epoch != doc.WAL.Compactions {
				t.Errorf("torn /statz: updates.epoch %d with wal.compactions %d",
					doc.Updates.Epoch, doc.WAL.Compactions)
				return
			}
			mrec := httptest.NewRecorder()
			h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			text := mrec.Body.String()
			epoch, okE := metricValue(text, "kdash_epoch")
			compactions, okC := metricValue(text, "kdash_wal_compactions_total")
			applyErrors, okA := metricValue(text, "kdash_wal_apply_errors_total")
			if !okE || !okC || !okA {
				t.Errorf("/metrics lacks kdash_epoch or the WAL drain counters")
				return
			}
			if applyErrors == 0 && epoch != compactions {
				t.Errorf("torn /metrics: kdash_epoch %v with kdash_wal_compactions_total %v", epoch, compactions)
				return
			}
		}
	}()

	// Edge adds/reweights are always valid, so applyErrors stays zero
	// and every drain advances the epoch. The short sleeps spread the
	// publishes out so the poller overlaps many of them.
	rng := rand.New(rand.NewSource(31))
	n := g.N()
	var lastSeq uint64
	for i := 0; i < 200; i++ {
		req := &updateRequest{AddEdges: []edgeJSON{{From: rng.Intn(n), To: rng.Intn(n), Weight: 0.5 + rng.Float64()}}}
		lastSeq = postUpdateWAL(t, h, req)
		if i%20 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	awaitApplied(t, h, lastSeq)
	close(stop)
	wg.Wait()
}

// TestCacheFlushOnInsertPlusRepartition pins the epoch-swap cache rule
// for the compound update: ONE delta that both inserts nodes and trips
// the staleness limit into a re-partition (insertion bumps the
// receiving shard's staleness, so with limit 1 and five inserts over
// four shards, pigeonhole puts two on one shard in the same apply).
// Either condition alone already breaks the selective-retention
// argument — vectors change length, homes move — so the cache must
// flush completely, and every post-swap answer must be recomputed
// bit-identically to an oracle that applied the same delta.
func TestCacheFlushOnInsertPlusRepartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.Random(rng)
	opts := shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 17, StalenessLimit: 1}
	sx, err := shard.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := New(sx, WithCache(8))
	n := sx.N()

	// Warm two cache entries (second read of each must hit).
	for _, q := range []int{1, n - 2} {
		if rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q)); rec.Code != http.StatusOK {
			t.Fatalf("warm q=%d: %d", q, rec.Code)
		}
	}
	hits0 := h.cacheHits.Value()
	for _, q := range []int{1, n - 2} {
		get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q))
	}
	if h.cacheHits.Value() != hits0+2 {
		t.Fatalf("cache never warmed (hits %d -> %d)", hits0, h.cacheHits.Value())
	}

	// The compound delta: five inserted nodes (edges wire the first two
	// in both directions so they are reachable) plus a plain edge add.
	body := fmt.Sprintf(`{"addNodes":5,"addEdges":[{"from":0,"to":%d,"weight":2},{"from":%d,"to":3,"weight":1},{"from":7,"to":11,"weight":1.5}]}`, n, n+1)
	rec := post(t, h, "/update", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d (%s)", rec.Code, rec.Body.String())
	}
	var ur updateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.NodesAdded != 5 || !ur.Repartitioned {
		t.Fatalf("test premise broken: want insert+repartition in one apply, got %+v", ur)
	}

	// Full flush: both warm entries are gone, their next reads miss.
	misses0 := h.cacheMisses.Value()
	for _, q := range []int{1, n - 2} {
		if rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q)); rec.Code != http.StatusOK {
			t.Fatalf("post-swap q=%d: %d", q, rec.Code)
		}
	}
	if h.cacheMisses.Value() != misses0+2 {
		t.Fatalf("stale cache entries served across an insert+repartition swap (misses %d -> %d)",
			misses0, h.cacheMisses.Value())
	}

	// And the recomputed answers (the cache-warming reads above plus
	// their hits) are bit-identical to an oracle fed the same delta —
	// including for the inserted nodes themselves.
	oracle, err := shard.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDelta(n)
	for i := 0; i < 5; i++ {
		d.AddNode()
	}
	for _, e := range [][3]float64{{0, float64(n), 2}, {float64(n + 1), 3, 1}, {7, 11, 1.5}} {
		if err := d.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	oracle, _, err = oracle.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, n - 2, n, n + 1} {
		compareAnswers(t, h, oracle, rand.New(rand.NewSource(int64(q))), "post-swap")
		rec, _ := get(t, h, fmt.Sprintf("/topk?q=%d&k=5", q))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-swap q=%d: %d (%s)", q, rec.Code, rec.Body.String())
		}
		var resp struct {
			Results []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("q=%d: %d results, oracle has %d", q, len(resp.Results), len(want))
		}
		for i := range want {
			if resp.Results[i].Node != want[i].Node || resp.Results[i].Score != want[i].Score {
				t.Fatalf("q=%d rank %d: (%d, %v) vs oracle (%d, %v)", q, i,
					resp.Results[i].Node, resp.Results[i].Score, want[i].Node, want[i].Score)
			}
		}
	}
}

// gatedEngine wraps a ShardedIndex. Its first ApplyDelta reports on
// entered, then waits for release (each when non-nil). Its first fails
// calls fail with core.ErrUnavailable, the way a coordinator that lost a
// worker mid-publish does. Later calls apply normally.
type gatedEngine struct {
	*shard.ShardedIndex
	fails            int32
	entered, release chan struct{}
	calls            atomic.Int32
}

func (e *gatedEngine) ApplyDelta(d *graph.Delta) (shard.Engine, shard.UpdateStats, error) {
	call := e.calls.Add(1)
	if call == 1 {
		if e.entered != nil {
			close(e.entered)
		}
		if e.release != nil {
			<-e.release
		}
	}
	if call <= e.fails {
		return nil, shard.UpdateStats{}, fmt.Errorf("gated engine: apply %d: %w", call, core.ErrUnavailable)
	}
	return e.ShardedIndex.ApplyDelta(d)
}

// awaitEntered waits for a gated engine's first apply to start.
func awaitEntered(t *testing.T, e *gatedEngine) {
	t.Helper()
	select {
	case <-e.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first apply never started")
	}
}

// TestFailedDrainDoesNotWedge pins what a failed drain leaves behind in
// each way a batch reaches the engine. Durable: every batch was acked
// and logged, so a failed drain that carried a node insertion keeps it
// — and the batches staged while it ran, one on the new node, one on
// old nodes only — for the retry; a reader meanwhile gets 503, the retry
// publishes all three, later batches still apply, and a restart over
// the same log recovers exactly the published graph. (Before, the
// failure left the staged node count one too high and every later batch
// was acked and then silently dropped.) Synchronous: the failure is the
// client's 503 and the client's retry applies. Recovery: a failed
// recovery drain fails NewDurable, which closes the log, and the record
// survives for the next start.
func TestFailedDrainDoesNotWedge(t *testing.T) {
	g := testutil.Clustered(120, 4, 1)
	n := g.N()
	u := 0
	for g.HasEdge(u, (u+60)%n) {
		u++
	}
	v := (u + 60) % n
	failing := func(t *testing.T, fails int32) *gatedEngine {
		t.Helper()
		sx, err := shard.Build(g, walBuildOpts)
		if err != nil {
			t.Fatal(err)
		}
		return &gatedEngine{ShardedIndex: sx, fails: fails}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"durable", func(t *testing.T) {
			// Two failures: the drain that carries the insertion, and the
			// retry a blocked reader kicks.
			e := failing(t, 2)
			e.entered, e.release = make(chan struct{}), make(chan struct{})
			cfg := WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone, CompactInterval: time.Hour}
			h := durableHandler(t, e, cfg)
			postUpdateWAL(t, h, &updateRequest{AddNodes: 1, AddEdges: []edgeJSON{{From: n, To: 3, Weight: 2}}})
			h.wals.kickCompact()
			awaitEntered(t, e)
			postUpdateWAL(t, h, &updateRequest{AddEdges: []edgeJSON{{From: 3, To: n, Weight: 2}}})
			seq := postUpdateWAL(t, h, &updateRequest{AddEdges: []edgeJSON{{From: u, To: v, Weight: 2}}})
			close(e.release)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				h.wals.mu.Lock()
				failed := h.wals.applyErrors
				h.wals.mu.Unlock()
				if failed == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the first drain never failed")
				}
			}
			if rec, _ := get(t, h, "/topk?q=0&k=3"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("read while the acked batches await a retry: status %d, Retry-After %q, want 503 with one (%s)",
					rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
			}
			awaitApplied(t, h, seq)
			h.wals.mu.Lock()
			applyErrors, dropped, nextBaseN := h.wals.applyErrors, h.wals.batchesDropped, h.wals.nextBaseN
			h.wals.mu.Unlock()
			if applyErrors != 2 || dropped != 0 || nextBaseN != n+1 {
				t.Fatalf("after the retried drain: applyErrors=%d batchesDropped=%d nextBaseN=%d, want 2, 0, %d",
					applyErrors, dropped, nextBaseN, n+1)
			}
			pub := h.snap()
			if pub.epoch != 1 || pub.engine.N() != n+1 {
				t.Fatalf("retried drain published epoch %d with %d nodes, want epoch 1 with %d", pub.epoch, pub.engine.N(), n+1)
			}
			for _, e := range [][2]int{{n, 3}, {3, n}, {u, v}} {
				if !pub.engine.Graph().HasEdge(e[0], e[1]) {
					t.Fatalf("acked edge (%d,%d) lost to the failed drain", e[0], e[1])
				}
			}
			awaitApplied(t, h, postUpdateWAL(t, h, &updateRequest{AddEdges: []edgeJSON{{From: v, To: n, Weight: 2}}}))
			want := h.snap().engine.Graph()
			if !want.HasEdge(v, n) {
				t.Fatalf("edge (%d,%d) after the retried drain lost", v, n)
			}

			// A restart with no snapshot replays the whole log over the
			// base graph and must land on the graph served before it.
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			base, err := shard.Build(g, walBuildOpts)
			if err != nil {
				t.Fatal(err)
			}
			got := durableHandler(t, base, cfg).snap().engine.Graph()
			if got.N() != want.N() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("restart recovered %d nodes / %d edges, served %d / %d before it", got.N(), got.M(), want.N(), want.M())
			}
		}},
		{"sync", func(t *testing.T) {
			h := New(failing(t, 1))
			body := fmt.Sprintf(`{"addNodes":1,"addEdges":[{"from":%d,"to":3,"weight":2}]}`, n)
			rec := post(t, h, "/update", body)
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("failed drain: status %d, Retry-After %q, want 503 with one (%s)", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
			}
			if epoch := h.snap().epoch; epoch != 0 {
				t.Fatalf("failed drain moved the epoch to %d", epoch)
			}
			rec = post(t, h, "/update", body)
			var resp updateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("retry: status %d (%s)", rec.Code, rec.Body.String())
			}
			if resp.Epoch != 1 || resp.Nodes != n+1 {
				t.Fatalf("retry: epoch %d with %d nodes, want 1 with %d", resp.Epoch, resp.Nodes, n+1)
			}
		}},
		{"recovery", func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			d := g.NewDelta()
			if err := d.AddEdge(u, v, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(d.AppendBinary(nil)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			e := failing(t, 1)
			files := openFiles()
			cfg := WALConfig{Dir: dir, Sync: wal.SyncNone}
			if h, err := NewDurable(e, cfg); !errors.Is(err, core.ErrUnavailable) {
				if h != nil {
					h.Close()
				}
				t.Fatalf("NewDurable over a failing recovery drain: err %v, want core.ErrUnavailable", err)
			}
			if now := openFiles(); now != files {
				t.Fatalf("failed NewDurable left the log open: %d open files, %d before", now, files)
			}
			h := durableHandler(t, e, cfg)
			if !h.snap().engine.Graph().HasEdge(u, v) {
				t.Fatal("the record a failed recovery kept was not recovered on the next start")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// openFiles counts the process's open file descriptors, or -1 where
// /proc is unavailable (the comparison then passes trivially).
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}
