package distributed

// The acceptance harness for distributed serving: every worker here is
// a real separate OS process (the test binary re-exec'd via TestMain),
// every byte crosses loopback TCP, and every answer is compared
// bit-for-bit against an in-process oracle opened from the same index
// directory and fed the same update chain. Worker stderr goes to log
// files under KDASH_DIST_LOG_DIR (falling back to the test's temp dir)
// so CI can upload them when a run fails.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kdash/internal/placement"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/server"
	"kdash/internal/shard"
	"kdash/internal/testutil"
	"kdash/internal/wal"
)

// TestMain doubles as the worker executable: when KDASH_WORKER_PROC is
// set, the process is a spawned worker, not a test run.
func TestMain(m *testing.M) {
	if os.Getenv("KDASH_WORKER_PROC") == "1" {
		runWorkerProc()
		return
	}
	os.Exit(m.Run())
}

// runWorkerProc is the body of a spawned worker process: open the index
// lazily, bind the requested address (retrying briefly — a restart test
// reuses the address its predecessor just released), announce readiness
// on stdout, serve until killed.
func runWorkerProc() {
	dir := os.Getenv("KDASH_WORKER_INDEX")
	addr := os.Getenv("KDASH_WORKER_ADDR")
	sx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: open %s: %v\n", dir, err)
		os.Exit(1)
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			fmt.Fprintf(os.Stderr, "worker: listen %s: %v\n", addr, err)
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "worker: serving %d nodes / %d shards (epoch %d) on %s\n",
		sx.N(), sx.Shards(), sx.Epoch(), ln.Addr())
	if err := placement.ServeWorker(ln, sx); err != nil {
		fmt.Fprintf(os.Stderr, "worker: serve: %v\n", err)
		os.Exit(1)
	}
}

// workerProc is one spawned worker process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string
}

// logDir resolves where worker stderr logs land: the CI-provided
// artifact directory when set, the test's own temp dir otherwise.
func logDir(t *testing.T) string {
	if d := os.Getenv("KDASH_DIST_LOG_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return t.TempDir()
}

// spawnWorker starts one worker process over dir at addr (empty addr
// picks an ephemeral port) and blocks until it announces its listening
// address. The worker is killed at test cleanup; tag names its log.
func spawnWorker(t *testing.T, dir, addr, tag string) *workerProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	logName := fmt.Sprintf("worker-%s-%s.log", strings.ReplaceAll(t.Name(), "/", "_"), tag)
	lf, err := os.Create(filepath.Join(logDir(t), logName))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"KDASH_WORKER_PROC=1",
		"KDASH_WORKER_INDEX="+dir,
		"KDASH_WORKER_ADDR="+addr)
	cmd.Stderr = lf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lf.Close()
	wp := &workerProc{cmd: cmd}
	t.Cleanup(wp.kill)

	lnc := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lnc <- strings.TrimSpace(strings.TrimPrefix(line, "LISTEN "))
	}()
	select {
	case got := <-lnc:
		if got == "" {
			t.Fatalf("worker %s exited before announcing its address (see its log)", tag)
		}
		wp.addr = got
	case <-time.After(30 * time.Second):
		t.Fatalf("worker %s never announced its address", tag)
	}
	return wp
}

// kill hard-kills the worker process (every connection dies with it)
// and reaps it. Safe to call twice.
func (wp *workerProc) kill() {
	if wp.cmd.Process != nil {
		wp.cmd.Process.Kill()
	}
	wp.cmd.Wait()
}

// buildDir builds a random sharded index and saves it for the cluster
// to share.
func buildDir(t *testing.T, rng *rand.Rand, seed int64) string {
	t.Helper()
	g := testutil.Random(rng)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: seed, StalenessLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// spawnCluster starts n worker processes and returns their addresses.
func spawnCluster(t *testing.T, dir string, n int) ([]*workerProc, []string) {
	t.Helper()
	procs := make([]*workerProc, n)
	addrs := make([]string, n)
	for w := 0; w < n; w++ {
		procs[w] = spawnWorker(t, dir, "", fmt.Sprintf("w%d", w))
		addrs[w] = procs[w].addr
	}
	return procs, addrs
}

func sameBits(t *testing.T, ctxt string, got, want interface{}) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed answer diverged\n got %+v\nwant %+v", ctxt, got, want)
	}
}

// TestDistributedDifferential is the tentpole acceptance test: real
// worker processes, randomized query/update chains, and bit-identical
// results AND per-query statistics against the in-process oracle at
// every epoch.
func TestDistributedDifferential(t *testing.T) {
	for _, cfg := range []placement.Config{{}} {
		name := "sequential"
		t.Run(name, func(t *testing.T) {
			seed := int64(41)
			rng := rand.New(rand.NewSource(seed))
			dir := buildDir(t, rng, seed)
			_, addrs := spawnCluster(t, dir, 2)

			co, err := placement.NewCoordinator(dir, addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { co.Close() }()
			oracle, err := shard.Open(dir, shard.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 3; round++ {
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
					sameBits(t, "TopK results", got, want)
					sameBits(t, "TopK stats", gqs, wqs)
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
				sameBits(t, "TopKBatch results", gotB, wantB)
				sameBits(t, "TopKBatch stats", gbs, wbs)

				seeds := map[int]float64{rng.Intn(n): 1, rng.Intn(n): 2.5}
				gotP, gps, err := co.TopKPersonalized(seeds, k)
				if err != nil {
					t.Fatalf("round %d TopKPersonalized: %v", round, err)
				}
				wantP, wps, err := oracle.TopKPersonalized(seeds, k)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "TopKPersonalized results", gotP, wantP)
				sameBits(t, "TopKPersonalized stats", gps, wps)

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
				co = nextAny.(*placement.Coordinator)
				if oracle, _, err = oracle.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// edgeAdd is one edge-add op expressed once and applied through both
// surfaces: the coordinator's HTTP /update and the oracle's Apply.
type edgeAdd struct {
	From, To int
	W        float64
}

// randomEdgeAdds draws always-valid ops (adds/reweights never fail).
func randomEdgeAdds(rng *rand.Rand, n, count int) []edgeAdd {
	ops := make([]edgeAdd, count)
	for i := range ops {
		ops[i] = edgeAdd{From: rng.Intn(n), To: rng.Intn(n), W: 0.5 + rng.Float64()}
	}
	return ops
}

// postUpdate applies ops through POST /update, asserting the status.
func postUpdate(t *testing.T, h http.Handler, ops []edgeAdd, wantStatus int) *httptest.ResponseRecorder {
	t.Helper()
	type edgeJSON struct {
		From   int     `json:"from"`
		To     int     `json:"to"`
		Weight float64 `json:"weight"`
	}
	body := struct {
		AddEdges []edgeJSON `json:"addEdges"`
	}{}
	for _, op := range ops {
		body.AddEdges = append(body.AddEdges, edgeJSON{From: op.From, To: op.To, Weight: op.W})
	}
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(string(blob)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("/update: status %d, want %d (%s)", rec.Code, wantStatus, rec.Body.String())
	}
	return rec
}

// applyOracle applies the same ops to the in-process oracle.
func applyOracle(t *testing.T, oracle *shard.ShardedIndex, ops []edgeAdd) *shard.ShardedIndex {
	t.Helper()
	d := oracle.Graph().NewDelta()
	for _, op := range ops {
		if err := d.AddEdge(op.From, op.To, op.W); err != nil {
			t.Fatal(err)
		}
	}
	next, _, err := oracle.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// topKHTTP fetches /topk and decodes nodes and scores.
func topKHTTP(t *testing.T, h http.Handler, q, k int) (*httptest.ResponseRecorder, []int, []float64) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/topk?q=%d&k=%d", q, k), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil, nil
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
	nodes := make([]int, len(resp.Results))
	scores := make([]float64, len(resp.Results))
	for i, r := range resp.Results {
		nodes[i], scores[i] = r.Node, r.Score
	}
	return rec, nodes, scores
}

// compareTopKHTTP asserts /topk answers are bit-identical to the
// oracle's (JSON round-trips float64 exactly, so == is the bit test).
func compareTopKHTTP(t *testing.T, h http.Handler, oracle *shard.ShardedIndex, q, k int, tag string) {
	t.Helper()
	rec, nodes, scores := topKHTTP(t, h, q, k)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: /topk?q=%d: status %d (%s)", tag, q, rec.Code, rec.Body.String())
	}
	want, _, err := oracle.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != len(want) {
		t.Fatalf("%s: q=%d: %d results, oracle has %d", tag, q, len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i].Node || scores[i] != want[i].Score {
			t.Fatalf("%s: q=%d rank %d: (%d, %v) vs oracle (%d, %v)",
				tag, q, i, nodes[i], scores[i], want[i].Node, want[i].Score)
		}
	}
}

// TestDistributedWorkerKill runs the full HTTP stack over spawned
// workers, hard-kills one mid-chain, and checks the degradation
// contract end to end: affected queries answer 503 with a Retry-After
// hint (never a wrong body), a failed update leaves the epoch intact,
// and once the worker restarts — from stale disk, two epochs behind —
// the chain replay heals it and answers are bit-identical again.
func TestDistributedWorkerKill(t *testing.T) {
	seed := int64(43)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed)
	procs, addrs := spawnCluster(t, dir, 2)

	co, err := placement.NewCoordinator(dir, addrs, placement.Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(co)
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := oracle.N()

	// Two updates through HTTP while everything is alive, so the
	// restarted worker comes back genuinely behind.
	for i := 0; i < 2; i++ {
		ops := randomEdgeAdds(rng, n, 3)
		postUpdate(t, h, ops, http.StatusOK)
		oracle = applyOracle(t, oracle, ops)
	}
	compareTopKHTTP(t, h, oracle, rng.Intn(n), 6, "pre-kill")

	// Kill worker 0's process: its shards are unreachable, and the
	// contract is a clean 503 — wrong answers are the one forbidden
	// outcome.
	procs[0].kill()
	saw503 := false
	for q := 0; q < n && !saw503; q++ {
		rec, _, _ := topKHTTP(t, h, q, 6)
		switch rec.Code {
		case http.StatusOK:
			// Served from live workers' shards; exactness is checked
			// after the restart below.
		case http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("503 without a Retry-After hint: %s", rec.Body.String())
			}
			saw503 = true
		default:
			t.Fatalf("/topk?q=%d with a dead worker: status %d (%s)", q, rec.Code, rec.Body.String())
		}
	}
	if !saw503 {
		t.Fatal("no query ever touched the dead worker's shards")
	}

	// Updates cannot two-phase publish either: 503, epoch unchanged.
	epochBefore := co.Epoch()
	rec := postUpdate(t, h, randomEdgeAdds(rng, n, 2), http.StatusServiceUnavailable)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("update 503 without a Retry-After hint")
	}
	if co.Epoch() != epochBefore {
		t.Fatalf("failed publish moved the epoch: %d -> %d", epochBefore, co.Epoch())
	}

	// Restart at the same address from the stale on-disk index: the
	// coordinator's chain replay must bring it current.
	spawnWorker(t, dir, addrs[0], "w0-restarted")
	for i := 0; i < 5; i++ {
		compareTopKHTTP(t, h, oracle, rng.Intn(n), 6, "post-restart")
	}
}

// TestDistributedTornConnections dials every worker through the seeded
// fault injector: calls see drops, delays and truncated frames, and the
// coordinator must hold the exact-or-unavailable line — a query either
// returns the oracle's bits or a typed rpc.ErrUnavailable, never a
// wrong answer.
func TestDistributedTornConnections(t *testing.T) {
	seed := int64(47)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed)
	_, addrs := spawnCluster(t, dir, 2)

	dial := rpc.FaultyDialer(rpc.NetDial, rpc.Faults{
		Seed:      seed,
		DropProb:  0.04,
		DelayProb: 0.10,
		TruncProb: 0.04,
	})
	co, err := placement.NewCoordinator(dir, addrs, placement.Config{Dial: dial, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	n, ok, unavailable := co.N(), 0, 0
	for i := 0; i < 150; i++ {
		q := rng.Intn(n)
		got, _, err := co.TopK(q, 5)
		if err != nil {
			if !errors.Is(err, rpc.ErrUnavailable) {
				t.Fatalf("TopK(%d): untyped failure %v", q, err)
			}
			unavailable++
			continue
		}
		want, _, werr := oracle.TopK(q, 5)
		if werr != nil {
			t.Fatal(werr)
		}
		sameBits(t, "torn-connection TopK", got, want)
		ok++
	}
	if ok == 0 {
		t.Fatal("fault injection starved every call; nothing was verified")
	}
	t.Logf("torn connections: %d exact answers, %d clean unavailable", ok, unavailable)
}

// TestDistributedWALMode smoke-tests the coordinator behind the durable
// update path: acks flow through the WAL, the compactor's ApplyDelta
// two-phase publishes to the worker processes, and the read barrier
// keeps post-ack queries bit-identical to the oracle.
func TestDistributedWALMode(t *testing.T) {
	seed := int64(53)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed)
	_, addrs := spawnCluster(t, dir, 2)

	co, err := placement.NewCoordinator(dir, addrs, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := server.NewDurable(co, server.WALConfig{
		Dir:             t.TempDir(),
		Sync:            wal.SyncNone,
		CompactInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := oracle.N()

	ops := randomEdgeAdds(rng, n, 4)
	postUpdate(t, h, ops, http.StatusAccepted)
	oracle = applyOracle(t, oracle, ops)

	// The read barrier makes the next query wait for the compaction, so
	// these comparisons already cover ack -> drain -> publish.
	for i := 0; i < 3; i++ {
		compareTopKHTTP(t, h, oracle, rng.Intn(n), 6, "post-wal-update")
	}
}

// TestDistributedChaos is the long-running kill/restart smoke: workers
// are murdered and revived on a loop while queries and updates hammer
// the coordinator, and every single response must be exact or cleanly
// unavailable. Gated behind KDASH_CHAOS=1 (CI runs it on a schedule;
// locally it is seconds of pure process churn).
func TestDistributedChaos(t *testing.T) {
	if os.Getenv("KDASH_CHAOS") != "1" {
		t.Skip("chaos smoke disabled; set KDASH_CHAOS=1")
	}
	duration := 30 * time.Second
	if d, err := time.ParseDuration(os.Getenv("KDASH_CHAOS_DURATION")); err == nil && d > 0 {
		duration = d
	}
	seed := int64(59)
	rng := rand.New(rand.NewSource(seed))
	dir := buildDir(t, rng, seed)
	procs, addrs := spawnCluster(t, dir, 2)

	co, err := placement.NewCoordinator(dir, addrs, placement.Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Open(dir, shard.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := oracle.N()

	// The chaos goroutine kills and revives a random worker on a loop.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		crng := rand.New(rand.NewSource(seed + 1))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(300+crng.Intn(500)) * time.Millisecond):
			}
			w := crng.Intn(len(procs))
			procs[w].kill()
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(100+crng.Intn(300)) * time.Millisecond):
			}
			procs[w] = spawnWorker(t, dir, addrs[w], fmt.Sprintf("chaos-w%d", w))
		}
	}()

	deadline := time.Now().Add(duration)
	exact, unavailable, updates := 0, 0, 0
	for time.Now().Before(deadline) {
		if rng.Intn(20) == 0 {
			// Updates race the chaos too: they either publish everywhere
			// or roll back whole.
			d := testutil.RandomDelta(rng, oracle.Graph(), 3)
			nextAny, _, err := co.ApplyDelta(d)
			if err != nil {
				if !errors.Is(err, rpc.ErrUnavailable) {
					t.Fatalf("chaos ApplyDelta: untyped failure %v", err)
				}
				continue
			}
			co = nextAny.(*placement.Coordinator)
			if oracle, _, err = oracle.Apply(d); err != nil {
				t.Fatal(err)
			}
			updates++
			continue
		}
		q := rng.Intn(n)
		got, _, err := co.TopK(q, 5)
		if err != nil {
			if !errors.Is(err, rpc.ErrUnavailable) {
				t.Fatalf("chaos TopK(%d): untyped failure %v", q, err)
			}
			unavailable++
			continue
		}
		want, _, werr := oracle.TopK(q, 5)
		if werr != nil {
			t.Fatal(werr)
		}
		sameBits(t, "chaos TopK", got, want)
		exact++
	}
	close(stop)
	<-done
	if exact == 0 {
		t.Fatal("chaos starved every query; nothing was verified")
	}
	t.Logf("chaos: %d exact answers, %d unavailable, %d updates applied over %v", exact, unavailable, updates, duration)
}
