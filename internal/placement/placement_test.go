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
	"slices"
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

// crossCut sums the cut weight between shards placed on different
// workers.
func crossCut(cut [][]float64, p []int) float64 {
	x := 0.0
	for a := range cut {
		for b, w := range cut[a] {
			if p[a] != p[b] {
				x += w
			}
		}
	}
	return x
}

// TestAssign pins the coordinator's placement: contiguous blocks when
// no cut weight favours anything else, the min-cut balanced split on a
// fixture whose two heavy groups interleave, and on random cut
// matrices balanced counts, determinism and no improving swap left.
func TestAssign(t *testing.T) {
	if got, want := Assign(make([][]float64, 5), 2), []int{0, 0, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Assign(no cut, 5 shards, 2 workers) = %v, want %v", got, want)
	}

	// Two groups of four shards exchange weight 10 within a group and 1
	// across: the balanced split keeping each group whole cuts only
	// weight-1 pairs. Contiguous groups keep the blocks; interleaved
	// ones are reached from them by swaps.
	grouped := func(group []int) [][]float64 {
		cut := make([][]float64, len(group))
		for a := range cut {
			cut[a] = make([]float64, len(group))
			for b := range cut[a] {
				switch {
				case a == b:
				case group[a] == group[b]:
					cut[a][b] = 10
				default:
					cut[a][b] = 1
				}
			}
		}
		return cut
	}
	for _, tc := range []struct{ group, want []int }{
		{[]int{0, 0, 0, 0, 1, 1, 1, 1}, []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{[]int{0, 1, 0, 1, 1, 0, 1, 0}, []int{1, 0, 1, 0, 0, 1, 0, 1}},
	} {
		cut := grouped(tc.group)
		if got := Assign(cut, 2); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Assign(groups %v) = %v (cut %v), want %v (cut %v)", tc.group, got, crossCut(cut, got), tc.want, crossCut(cut, tc.want))
		}
	}

	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 200; trial++ {
		s, workers := 1+rng.Intn(12), 1+rng.Intn(4)
		cut := make([][]float64, s)
		for a := range cut {
			cut[a] = make([]float64, s)
			for b := range cut[a] {
				if a != b && rng.Intn(3) > 0 {
					cut[a][b] = rng.Float64() * 5
				}
			}
		}
		p := Assign(cut, workers)
		if again := Assign(cut, workers); !reflect.DeepEqual(p, again) {
			t.Fatalf("Assign is not deterministic: %v then %v", p, again)
		}
		counts := make([]int, workers)
		for _, w := range p {
			counts[w]++
		}
		if slices.Max(counts)-slices.Min(counts) > 1 {
			t.Fatalf("%d shards on %d workers: counts %v", s, workers, counts)
		}
		x := crossCut(cut, p)
		for a := range p {
			for b := a + 1; b < s; b++ {
				q := slices.Clone(p)
				q[a], q[b] = q[b], q[a]
				if y := crossCut(cut, q); y < x-1e-6 {
					t.Fatalf("placement %v (cut %v) leaves swap %d<->%d (cut %v)", p, x, a, b, y)
				}
			}
		}
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
// retired block solve, and 10, the first past OpRunRows — over one
// pooled connection: each is refused
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
	for _, op := range []uint8{2, 3, 0, 10, 255} {
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

// runLog is a worker handler that records every OpRunRows reply it
// sends and the size of its body.
type runLog struct {
	wk    *Worker
	mu    sync.Mutex
	reps  []rpc.RunRowsReply
	sizes []int
}

func (l *runLog) Handle(op uint8, body, out []byte) ([]byte, error) {
	n := len(out)
	resp, err := l.wk.Handle(op, body, out)
	if op == rpc.OpRunRows && err == nil {
		var rep rpc.RunRowsReply
		if derr := rpc.DecodeRunRowsReply(resp[n:], &rep); derr != nil {
			return nil, derr
		}
		l.mu.Lock()
		l.reps = append(l.reps, rep)
		l.sizes = append(l.sizes, len(resp)-n)
		l.mu.Unlock()
	}
	return resp, err
}

// TestSolveRepliesCarryOnlyNamedRows is the payload guard: at k = 10
// each push solve returns the solved shard's cut-owning rows plus the
// rank prefix's rows in that shard — nothing else — and a run's reply
// is 8 bytes per row plus 8 per step behind its fixed header. The
// expected row set is derived here from the graph alone: a node is
// fetched when it owns an edge into another shard or lies in the
// fewest whole BFS layers from q holding more than k nodes.
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
	log := &runLog{wk: NewWorker(wsx)}
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
		log.reps, log.sizes = nil, nil
		log.mu.Unlock()
		_, qs, err := co.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		prefix := bfsPrefix(g, q, k)
		log.mu.Lock()
		reps, sizes := log.reps, log.sizes
		log.mu.Unlock()
		steps := 0
		for c, rep := range reps {
			size := 12
			for s, si := range rep.Steps {
				want := 0
				for u := 0; u < g.N(); u++ {
					if co.HomeShard(u) == si && (cutOwner[u] || prefix[u]) {
						want++
					}
				}
				if got := rep.Ptr[s+1] - rep.Ptr[s]; got != want {
					t.Fatalf("q=%d call %d step %d (shard %d): %d values, want %d", q, c, s, si, got, want)
				}
				size += 8 + 8*want
				checked++
			}
			if sizes[c] != size {
				t.Fatalf("q=%d call %d: reply %d bytes, want %d", q, c, sizes[c], size)
			}
			steps += len(rep.Steps)
		}
		if steps != qs.Solves {
			t.Fatalf("q=%d: runs returned %d solves for %d push solves", q, steps, qs.Solves)
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
// reports the worker's own elapsed time inside the wall clock of each
// step that made a worker call — the first solve of each run the call
// returned — and none on the replayed steps; the trace's calls count
// every such step. An in-process trace reports neither.
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
		if remote.Steps[0].WorkerNS <= 0 {
			t.Fatalf("q=%d: the first step made no call (workerNs %d)", q, remote.Steps[0].WorkerNS)
		}
		calls := 0
		for j, s := range remote.Steps {
			if s.WorkerNS < 0 || s.WorkerNS > s.DurationNS {
				t.Fatalf("q=%d step %d: workerNs %d outside [0, durationNs %d]", q, j, s.WorkerNS, s.DurationNS)
			}
			if s.WorkerNS > 0 {
				calls++
			}
			if local.Steps[j].WorkerNS != 0 {
				t.Fatalf("q=%d step %d: in-process step reports workerNs %d", q, j, local.Steps[j].WorkerNS)
			}
		}
		if calls > remote.Calls || local.Calls != 0 {
			t.Fatalf("q=%d: %d calling steps, trace calls %d (in process %d)", q, calls, remote.Calls, local.Calls)
		}
	}
}

// workerRuns counts the calls a coordinator's push makes for an
// in-process solve sequence under a placement: one per maximal run of
// solves on one worker, a run longer than rpc.MaxRunSteps taking one
// call per MaxRunSteps solves.
func workerRuns(steps []obs.SolveStep, place []int) int {
	calls, run := 0, 0
	for j, s := range steps {
		if j > 0 && place[s.Shard] == place[steps[j-1].Shard] && run < rpc.MaxRunSteps {
			run++
			continue
		}
		calls, run = calls+1, 1
	}
	return calls
}

// TestCoordinatorOneCallPerWorkerRun: on every testutil shape, served
// by two in-package workers, a coordinator's query makes exactly one
// worker call per maximal run of the in-process push's solves on one
// worker under the coordinator's placement, and its answers and
// QueryStats are the in-process engine's, bit for bit.
func TestCoordinatorOneCallPerWorkerRun(t *testing.T) {
	merged := 0 // solves that rode another solve's call
	for name, g := range testutil.Shapes(57) {
		t.Run(name, func(t *testing.T) {
			sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 57})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := sx.Save(dir); err != nil {
				t.Fatal(err)
			}
			logs := make([]*runLog, 2)
			addrs := make([]string, len(logs))
			for w := range logs {
				wsx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
				if err != nil {
					t.Fatal(err)
				}
				logs[w] = &runLog{wk: NewWorker(wsx)}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs[w] = ln.Addr().String()
				go rpc.Serve(ln, logs[w]) //nolint:errcheck // closes with the listener
				t.Cleanup(func() { ln.Close() })
			}
			co, err := NewCoordinator(dir, addrs, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			runs := func() (n int) {
				for _, l := range logs {
					l.mu.Lock()
					n += len(l.reps)
					l.mu.Unlock()
				}
				return n
			}
			rng := rand.New(rand.NewSource(57))
			for i := 0; i < 25; i++ {
				q, k := rng.Intn(g.N()), 1+rng.Intn(12)
				before := runs()
				got, gqs, err := co.TopK(q, k)
				if err != nil {
					t.Fatalf("TopK(%d,%d): %v", q, k, err)
				}
				calls := runs() - before
				want, wqs, err := sx.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || gqs != wqs {
					t.Fatalf("TopK(%d,%d) diverged: %v %+v, in process %v %+v", q, k, got, gqs, want, wqs)
				}
				var tr obs.QueryTrace
				if _, _, err := sx.Search(q, core.SearchOptions{K: k, Trace: &tr}); err != nil {
					t.Fatal(err)
				}
				if wantCalls := workerRuns(tr.Steps, co.cl.placement); calls != wantCalls {
					t.Fatalf("TopK(%d,%d): %d worker calls for solves on shards %v under placement %v, want %d",
						q, k, calls, stepShards(tr.Steps), co.cl.placement, wantCalls)
				}
				merged += len(tr.Steps) - calls
			}
		})
	}
	if merged == 0 {
		t.Fatal("no worker call ran more than one solve")
	}
}

// stepShards lists a trace's solved shards in order.
func stepShards(steps []obs.SolveStep) []int {
	out := make([]int, len(steps))
	for j, s := range steps {
		out[j] = s.Shard
	}
	return out
}
