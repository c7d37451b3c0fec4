package placement

// In-process differential tests for the coordinator/worker seam: the
// workers are real RPC servers on loopback TCP (only the processes are
// shared — every byte still crosses the wire), and every answer is
// compared bit-for-bit against an in-process index opened from the same
// directory and fed the same update chain. The multi-process version of
// this harness lives in internal/distributed.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/obs"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

// HomeShard reports which shard owns node u.
func (co *Coordinator) HomeShard(u int) int { return co.sx.HomeShard(u) }

// Epoch reports the worker's current committed epoch.
func (wk *Worker) Epoch() int {
	wk.mu.RLock()
	defer wk.mu.RUnlock()
	return wk.cur
}

// buildDir builds a random sharded index and saves it to a temp dir.
func buildDir(t *testing.T, rng *rand.Rand, seed int64, shards int) string {
	t.Helper()
	g := testutil.Random(rng)
	sx, err := shard.Build(g, shard.Options{Shards: shards, Reorder: reorder.Hybrid, Seed: seed, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startWorkers serves nWorkers real RPC workers on loopback, each over
// its own lazily opened copy of the index.
func startWorkers(t *testing.T, dir string, nWorkers int) []string {
	t.Helper()
	addrs := make([]string, nWorkers)
	for w := 0; w < nWorkers; w++ {
		sx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[w] = ln.Addr().String()
		go ServeWorker(ln, sx) //nolint:errcheck // closes with the listener
		t.Cleanup(func() { ln.Close() })
	}
	return addrs
}

// trackedWorker is a worker whose accepted connections are recorded so
// kill() can sever them all — closing only the listener would leave the
// coordinator's pooled connections alive and the "dead" worker serving.
type trackedWorker struct {
	ln net.Listener
	mu sync.Mutex
	cs []net.Conn
}

func serveTracked(t *testing.T, dir, addr string) *trackedWorker {
	t.Helper()
	sx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := listenAt(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	tw := &trackedWorker{ln: ln}
	wk := NewWorker(sx)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			tw.mu.Lock()
			tw.cs = append(tw.cs, nc)
			tw.mu.Unlock()
			go rpc.ServeConn(nc, wk)
		}
	}()
	t.Cleanup(tw.kill)
	return tw
}

func (tw *trackedWorker) kill() {
	tw.ln.Close()
	tw.mu.Lock()
	defer tw.mu.Unlock()
	for _, c := range tw.cs {
		c.Close()
	}
	tw.cs = nil
}

func sameResults(t *testing.T, ctxt string, got, want interface{}) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed answer diverged\n got %+v\nwant %+v", ctxt, got, want)
	}
}

func TestCoordinatorDifferential(t *testing.T) {
	seed := int64(7)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed, 4)
	addrs := startWorkers(t, dir, 2)

	co, err := NewCoordinator(dir, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		if co.Epoch() != oracle.Epoch() {
			t.Fatalf("round %d: epoch %d vs oracle %d", round, co.Epoch(), oracle.Epoch())
		}
		n := co.N()
		k := 1 + rng.Intn(8)
		for i := 0; i < 3; i++ {
			q := rng.Intn(n)
			got, gqs, err := co.TopK(q, k)
			if err != nil {
				t.Fatalf("round %d TopK(%d): %v", round, q, err)
			}
			want, wqs, err := oracle.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "TopK results", got, want)
			sameResults(t, "TopK stats", gqs, wqs)
		}
		batch := make([]int, 4)
		for i := range batch {
			batch[i] = rng.Intn(n)
		}
		gotB, gbs, err := co.TopKBatch(batch, k)
		if err != nil {
			t.Fatalf("round %d TopKBatch: %v", round, err)
		}
		wantB, wbs, err := oracle.TopKBatch(batch, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "TopKBatch results", gotB, wantB)
		sameResults(t, "TopKBatch stats", gbs, wbs)
		// A batch is a loop over TopK: every item, results and
		// QueryStats, equals the single query exactly.
		for i, q := range batch {
			want, wqs, err := co.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "TopKBatch item vs TopK results", gotB[i], want)
			sameResults(t, "TopKBatch item vs TopK stats", gbs.PerQuery[i], wqs)
		}

		seeds := map[int]float64{rng.Intn(n): 1, rng.Intn(n): 2.5}
		gotP, gps, err := co.TopKPersonalized(seeds, k)
		if err != nil {
			t.Fatalf("round %d TopKPersonalized: %v", round, err)
		}
		wantP, wps, err := oracle.TopKPersonalized(seeds, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "TopKPersonalized results", gotP, wantP)
		sameResults(t, "TopKPersonalized stats", gps, wps)

		q, u := rng.Intn(n), rng.Intn(n)
		gotPx, err := co.Proximity(q, u)
		if err != nil {
			t.Fatalf("round %d Proximity: %v", round, err)
		}
		wantPx, err := oracle.Proximity(q, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotPx != wantPx {
			t.Fatalf("round %d Proximity(%d,%d): %v != %v", round, q, u, gotPx, wantPx)
		}

		d := testutil.RandomDelta(rng, oracle.Graph(), 6)
		nextAny, _, err := co.ApplyDelta(d)
		if err != nil {
			t.Fatalf("round %d ApplyDelta: %v", round, err)
		}
		co = nextAny.(*Coordinator)
		nextOracle, _, err := oracle.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		oracle = nextOracle
	}
	co.Close()
}

// TestCoordinatorWorkerRestartReplay kills a worker mid-chain, restarts
// it from the (stale) on-disk index at the same address, and checks the
// chain replay brings it current: answers stay bit-identical and the
// replay counter moves.
func TestCoordinatorWorkerRestartReplay(t *testing.T) {
	seed := int64(11)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed, 4)

	// Worker 0 is managed manually so it can be killed and restarted.
	tw := serveTracked(t, dir, "127.0.0.1:0")
	addr0 := tw.ln.Addr().String()
	addrs := append([]string{addr0}, startWorkers(t, dir, 1)...)

	co, err := NewCoordinator(dir, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Two updates while everything is alive.
	for round := 0; round < 2; round++ {
		d := testutil.RandomDelta(rng, oracle.Graph(), 5)
		nextAny, _, err := co.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		co = nextAny.(*Coordinator)
		if oracle, _, err = oracle.Apply(d); err != nil {
			t.Fatal(err)
		}
	}

	// Kill worker 0 (listener AND live connections) and restart it from
	// disk at the same address: it comes back at the base epoch, two
	// epochs behind.
	tw.kill()
	serveTracked(t, dir, addr0)

	// Queries must heal through replay and stay bit-identical.
	n := co.N()
	for i := 0; i < 5; i++ {
		q := rng.Intn(n)
		got, _, err := co.TopK(q, 5)
		if err != nil {
			t.Fatalf("post-restart TopK(%d): %v", q, err)
		}
		want, _, err := oracle.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "post-restart TopK", got, want)
	}
	replays := int64(0)
	for w := range co.cl.reconnects {
		replays += co.cl.reconnects[w].Load()
	}
	if replays == 0 {
		t.Fatal("restart was served without a single replay round — the worker cannot have healed")
	}
	co.Close()
}

// listenAt retries binding to a specific address briefly (the killed
// listener's port lingers in TIME_WAIT for a moment on some platforms).
func listenAt(t *testing.T, addr string) (net.Listener, error) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}

// TestCoordinatorWorkerLossUnavailable kills a worker with no
// replacement: queries needing its shards must fail with
// rpc.ErrUnavailable (the server maps it to 503), never a wrong or
// partial answer.
func TestCoordinatorWorkerLossUnavailable(t *testing.T) {
	seed := int64(13)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed, 4)

	tw := serveTracked(t, dir, "127.0.0.1:0")
	addrs := append([]string{tw.ln.Addr().String()}, startWorkers(t, dir, 1)...)

	co, err := NewCoordinator(dir, addrs, Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	tw.kill() // worker 0 is gone for good

	sawUnavailable := false
	for q := 0; q < co.N() && !sawUnavailable; q++ {
		_, _, err := co.TopK(q, 5)
		if err != nil {
			if !errors.Is(err, rpc.ErrUnavailable) {
				t.Fatalf("TopK(%d): untyped failure %v", q, err)
			}
			sawUnavailable = true
		}
	}
	if !sawUnavailable {
		t.Fatal("no query ever touched the dead worker's shards")
	}

	// Updates cannot two-phase publish either: clean unavailable, old
	// epoch intact.
	d := testutil.RandomDelta(rng, co.Graph(), 4)
	epochBefore := co.Epoch()
	if _, _, err := co.ApplyDelta(d); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("ApplyDelta with a dead worker: want ErrUnavailable, got %v", err)
	}
	if co.Epoch() != epochBefore {
		t.Fatalf("failed publish moved the epoch: %d -> %d", epochBefore, co.Epoch())
	}
}

// TestAssign pins the coordinator's round-robin placement.
func TestAssign(t *testing.T) {
	got := Assign(5, 2)
	want := []int{0, 1, 0, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Assign(5,2) = %v, want %v", got, want)
	}
}

// TestCoordinatorEngineSurface covers the shard.Engine surface a
// coordinator exposes beyond the push-routing paths the differential
// test drives: the factorless passthroughs (Search, Proximity),
// the metadata accessors the HTTP tier reads, the Statz cluster block
// and the refused WAL snapshot — every answer checked bit-for-bit
// against an in-process index from the same directory.
func TestCoordinatorEngineSurface(t *testing.T) {
	seed := int64(11)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed, 4)
	addrs := startWorkers(t, dir, 2)

	co, err := NewCoordinator(dir, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if co.N() != oracle.N() || co.Shards() != oracle.Shards() || co.Epoch() != oracle.Epoch() {
		t.Fatalf("shape: co (%d,%d,%d) vs oracle (%d,%d,%d)",
			co.N(), co.Shards(), co.Epoch(), oracle.N(), oracle.Shards(), oracle.Epoch())
	}
	if co.Restart() != oracle.Restart() {
		t.Fatalf("Restart: %v vs %v", co.Restart(), oracle.Restart())
	}
	if co.WALSeq() != oracle.WALSeq() {
		t.Fatalf("WALSeq: %d vs %d", co.WALSeq(), oracle.WALSeq())
	}
	if co.Graph() == nil || co.Graph().N() != oracle.Graph().N() {
		t.Fatal("Graph passthrough broken")
	}
	n := co.N()
	for u := 0; u < n; u += 7 {
		if co.HomeShard(u) != oracle.HomeShard(u) {
			t.Fatalf("HomeShard(%d): %d vs %d", u, co.HomeShard(u), oracle.HomeShard(u))
		}
	}

	q := rng.Intn(n)
	gotS, gss, err := co.Search(q, core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantS, wss, err := oracle.Search(q, core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "Search results", gotS, wantS)
	sameResults(t, "Search stats", gss, wss)

	// Each pair's proximity is the score the in-process rank gave it.
	for _, r := range wantS {
		p, err := co.Proximity(q, r.Node)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("Proximity(%d,%d)", q, r.Node), p, r.Score)
	}

	cluster := co.Statz().Cluster
	if cluster == nil {
		t.Fatal("Statz has no cluster block")
	}
	if len(cluster.Workers) != 2 {
		t.Fatalf("cluster.workers = %+v", cluster.Workers)
	}
	totalShards := 0
	for w, wd := range cluster.Workers {
		if wd.Addr != addrs[w] {
			t.Fatalf("worker %d addr %v, want %s", w, wd.Addr, addrs[w])
		}
		totalShards += wd.Shards
	}
	if totalShards != co.Shards() {
		t.Fatalf("placement covers %d shards, index has %d", totalShards, co.Shards())
	}
	if err := co.SaveWALSnapshot(t.TempDir(), 1, nil); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("SaveWALSnapshot = %v, want ErrNoSnapshot", err)
	}
}

// TestWorkerPublishStateMachine unit-tests the two-phase state machine
// directly: prepare/commit idempotency (the RPC layer may replay a call
// whose response was torn), wrongEpoch on gaps and missing stages, and
// the two-epoch residency window.
func TestWorkerPublishStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testutil.Random(rng)
	sx, err := shard.Build(g, shard.Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 23, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(sx)
	base := wk.Epoch()

	deltas := make([][]byte, 3)
	og := g
	for i := range deltas {
		d := testutil.RandomDelta(rng, og, 4)
		deltas[i] = d.AppendBinary(nil)
		if og, err = og.Apply(d); err != nil {
			t.Fatal(err)
		}
	}

	// A gap is rejected; the next epoch stages; staging twice is a no-op.
	if err := wk.prepare(base+2, deltas[1]); !errors.Is(err, rpc.ErrWrongEpoch) {
		t.Fatalf("prepare gap: %v, want wrongEpoch", err)
	}
	if err := wk.prepare(base+1, deltas[0]); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := wk.prepare(base+1, deltas[0]); err != nil {
		t.Fatalf("re-prepare staged: %v", err)
	}

	// Committing an unstaged epoch is rejected; the staged one lands;
	// re-preparing or re-committing a committed epoch is a no-op.
	if err := wk.commit(base + 2); !errors.Is(err, rpc.ErrWrongEpoch) {
		t.Fatalf("commit unstaged: %v, want wrongEpoch", err)
	}
	if err := wk.commit(base + 1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if wk.Epoch() != base+1 {
		t.Fatalf("epoch %d, want %d", wk.Epoch(), base+1)
	}
	if err := wk.commit(base + 1); err != nil {
		t.Fatalf("re-commit: %v", err)
	}
	if err := wk.prepare(base+1, deltas[0]); err != nil {
		t.Fatalf("prepare committed: %v", err)
	}

	// Two more publishes: only the last two committed epochs stay
	// resident, the base epoch is pruned.
	for i, db := range deltas[1:] {
		e := base + 2 + i
		if err := wk.prepare(e, db); err != nil {
			t.Fatalf("prepare %d: %v", e, err)
		}
		if err := wk.commit(e); err != nil {
			t.Fatalf("commit %d: %v", e, err)
		}
	}
	if wk.Epoch() != base+3 {
		t.Fatalf("epoch %d, want %d", wk.Epoch(), base+3)
	}
	if wk.at(base) != nil || wk.at(base+1) != nil {
		t.Fatal("epochs beyond the two-epoch window still resident")
	}
	if wk.at(base+2) == nil || wk.at(base+3) == nil {
		t.Fatal("last two committed epochs must stay resident")
	}
}

// TestWorkerRejectsUnknownOps sends opcodes the protocol does not
// define — among them 2, the retired whole-solution solve, and 3, the
// retired block solve — over one pooled connection: each is refused
// with the unknown-op error, and the same connection then serves an
// ordinary row solve whose values match the in-process worker surface
// bit for bit.
func TestWorkerRejectsUnknownOps(t *testing.T) {
	seed := int64(29)
	dir := buildDir(t, rand.New(rand.NewSource(seed)), seed, 3)
	tw := serveTracked(t, dir, "127.0.0.1:0")
	c := rpc.NewClient(tw.ln.Addr().String(), nil, 0)
	defer c.Close()
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owned := 0 // shard 0's own rows; a worker refuses its ghost sink's
	for _, si := range oracle.Assignment() {
		if si == 0 {
			owned++
		}
	}
	rows := make([]int, owned)
	for lv := range rows {
		rows[lv] = lv
	}
	ptr, idx, val := []int{0, 1}, []int{0}, []float64{1}
	body := rpc.AppendSolveRowsRequest(nil, oracle.Epoch(), 0, rows, ptr, idx, val)
	for _, op := range []uint8{2, 3, 0, 9, 255} {
		_, err := c.Call(op, body)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown op %d", op)) {
			t.Fatalf("op %d: err = %v, want the unknown-op error", op, err)
		}
		resp, err := c.Call(rpc.OpSolveRows, body)
		if err != nil {
			t.Fatalf("solve after op %d: %v", op, err)
		}
		got := make([]float64, len(rows))
		if _, err := rpc.DecodeSolveRowsResponse(resp, got); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(rows))
		if err := oracle.SolveShardRows(0, rows, ptr, idx, val, want); err != nil {
			t.Fatal(err)
		}
		sameResults(t, "solve after unknown op", got, want)
	}
	tw.mu.Lock()
	conns := len(tw.cs)
	tw.mu.Unlock()
	if conns != 1 {
		t.Fatalf("worker accepted %d connections, want the one pooled connection to survive every rejection", conns)
	}
}

// solveLog is a worker handler that records every OpSolveRows request
// it answers and the size of its reply body.
type solveLog struct {
	wk    *Worker
	mu    sync.Mutex
	reqs  []rpc.SolveRowsRequest
	sizes []int
}

func (l *solveLog) Handle(op uint8, body []byte) ([]byte, error) {
	resp, err := l.wk.Handle(op, body)
	if op == rpc.OpSolveRows && err == nil {
		var req rpc.SolveRowsRequest
		if derr := rpc.DecodeSolveRowsRequest(body, &req); derr != nil {
			return nil, derr
		}
		l.mu.Lock()
		l.reqs = append(l.reqs, req)
		l.sizes = append(l.sizes, len(resp))
		l.mu.Unlock()
	}
	return resp, err
}

// TestSolveRepliesCarryOnlyNamedRows is the payload guard: at k = 10
// each push solve asks its worker for the solved shard's cut-owning
// rows plus the rank prefix's rows in that shard — nothing else — and
// the reply is 8 bytes per row behind the fixed header. The expected
// row set is derived here from the graph alone: a node is fetched when
// it owns an edge into another shard or lies in the fewest whole BFS
// layers from q holding more than k nodes.
func TestSolveRepliesCarryOnlyNamedRows(t *testing.T) {
	const k = 10
	g := gen.CommunityOverlay(500, 4, 10, 0.85, 3)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	wsx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	log := &solveLog{wk: NewWorker(wsx)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(ln, log) //nolint:errcheck // closes with the listener
	t.Cleanup(func() { ln.Close() })
	co, err := NewCoordinator(dir, []string{ln.Addr().String()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	cutOwner := make([]bool, g.N())
	for u := range cutOwner {
		g.OutNeighbors(u, func(v int, _ float64) {
			if co.HomeShard(v) != co.HomeShard(u) {
				cutOwner[u] = true
			}
		})
	}
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for i := 0; i < 20; i++ {
		q := rng.Intn(g.N())
		log.mu.Lock()
		log.reqs, log.sizes = nil, nil
		log.mu.Unlock()
		_, qs, err := co.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		prefix := bfsPrefix(g, q, k)
		log.mu.Lock()
		reqs, sizes := log.reqs, log.sizes
		log.mu.Unlock()
		if len(reqs) < qs.Solves {
			t.Fatalf("q=%d: %d solve calls for %d push solves", q, len(reqs), qs.Solves)
		}
		for c, req := range reqs[:qs.Solves] { // the push's calls come first, one per solve
			want := 0
			for u := 0; u < g.N(); u++ {
				if co.HomeShard(u) == req.Shard && (cutOwner[u] || prefix[u]) {
					want++
				}
			}
			if nrhs := len(req.Ptr) - 1; nrhs != 1 || len(req.Rows) != want {
				t.Fatalf("q=%d call %d (shard %d): %d right-hand sides × %d rows, want 1 × %d", q, c, req.Shard, nrhs, len(req.Rows), want)
			}
			if sizes[c] != rpc.SolveRowsReplyHeader+8*want {
				t.Fatalf("q=%d call %d: reply %d bytes, want %d", q, c, sizes[c], rpc.SolveRowsReplyHeader+8*want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no push solve was checked")
	}
}

// bfsPrefix returns the fewest whole BFS layers from root holding more
// than need nodes.
func bfsPrefix(g *graph.Graph, root, need int) map[int]bool {
	ptr, to := g.OutCSR()
	in := map[int]bool{root: true}
	layer := []int{root}
	for len(in) <= need && len(layer) > 0 {
		var next []int
		for _, u := range layer {
			for _, id := range to[ptr[u]:ptr[u+1]] {
				if v := int(id); !in[v] {
					in[v] = true
					next = append(next, v)
				}
			}
		}
		layer = next
	}
	return in
}

// TestCoordinatorTraceSplitsWorkerTime: a coordinator's traced query
// reports, for every remote solve step, the worker's own elapsed time
// inside the step's wall clock; an in-process trace reports none.
func TestCoordinatorTraceSplitsWorkerTime(t *testing.T) {
	seed := int64(17)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed, 4)
	co, err := NewCoordinator(dir, startWorkers(t, dir, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := rng.Intn(co.N())
		var remote, local obs.QueryTrace
		if _, _, err := co.Search(q, core.SearchOptions{K: 5, Trace: &remote}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := oracle.Search(q, core.SearchOptions{K: 5, Trace: &local}); err != nil {
			t.Fatal(err)
		}
		if len(remote.Steps) == 0 || len(remote.Steps) != len(local.Steps) {
			t.Fatalf("q=%d: %d remote steps, %d local", q, len(remote.Steps), len(local.Steps))
		}
		for j, s := range remote.Steps {
			if s.WorkerNS <= 0 || s.WorkerNS > s.DurationNS {
				t.Fatalf("q=%d step %d: workerNs %d outside (0, durationNs %d]", q, j, s.WorkerNS, s.DurationNS)
			}
			if local.Steps[j].WorkerNS != 0 {
				t.Fatalf("q=%d step %d: in-process step reports workerNs %d", q, j, local.Steps[j].WorkerNS)
			}
		}
	}
}
