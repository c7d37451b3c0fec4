// Command trace is the benchmark's traced run: it times calls into each
// module's public functions in-process, replays the first measured pass
// of a workload over HTTP with and without ?trace=1, folds the server's
// trace blocks and /statz deltas into the per-layer metrics, and writes
// one span file per workload. End-to-end metrics never come from here.
// See bench/README.md for what each metric is and which end-to-end
// metric it should move.
//
//	go -C bench run ./trace -seed 1                      # all four workloads
//	go -C bench run ./trace -workload cluster_topk -seed 1
//
// This is the only place in bench/ that imports kdash/internal/...; it
// keeps to server.{New,WithCache,Handler.ServeHTTP}, wal.{Open,Append,
// Replay}, kernels.{ScatterAXPY,ScalarScatterAXPY}, topk.FromVector and
// rpc.{NewClient,Ping}, and reaches shard and graph through the public
// kdash package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"kdash"
	"kdash/bench/internal/harness"
	"kdash/bench/internal/workload"
	"kdash/internal/lu/kernels"
	"kdash/internal/rpc"
	"kdash/internal/server"
	"kdash/internal/topk"
	"kdash/internal/wal"
)

// perLayer lists every per-layer metric in print order; BENCHMARK.json
// carries the same names. A metric that does not apply to the traced
// workload (cache counters without a cache, cluster calls without a
// cluster) reads 0.
var perLayer = []struct{ name, unit string }{
	{"host.calib_us", "us"},
	{"client.http_floor_us", "us"},
	{"client.req_p90_us", "us"},
	{"client.req_p99_us", "us"},
	{"client.req_max_us", "us"},
	{"client.update_ack_us_p50", "us"},
	{"client.stall_ms_p50", "ms"},
	{"server.ready_ms", "ms"},
	{"server.handler_topk_us", "us"},
	{"server.handler_hit_us", "us"},
	{"server.overhead_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.compactions", "count"},
	{"server.recover_ms", "ms"},
	{"shard.build_s", "s"},
	{"shard.build_cpu_s", "s"},
	{"shard.open_ms", "ms"},
	{"shard.index_bytes", "bytes"},
	{"shard.topk_us", "us"},
	{"shard.topk_p99_us", "us"},
	{"shard.push_us", "us"},
	{"shard.rank_us", "us"},
	{"shard.solve_us", "us"},
	{"shard.solves_per_query", "count"},
	{"shard.shards_pruned_per_query", "count"},
	{"shard.nodes_evaluated_per_query", "count"},
	{"shard.allocs_per_query", "count"},
	{"shard.vector_us", "us"},
	{"shard.batch8_us_per_query", "us"},
	{"shard.apply_ms", "ms"},
	{"shard.apply_shards_rebuilt", "count"},
	{"core.build_s", "s"},
	{"core.topk_us", "us"},
	{"core.computations_per_query", "count"},
	{"core.nnz_inverse_per_edge", "ratio"},
	{"kernels.scatter_ns_per_entry_64", "ns"},
	{"kernels.scatter_ns_per_entry_1024", "ns"},
	{"kernels.scalar_ns_per_entry_16", "ns"},
	{"topk.from_vector_us", "us"},
	{"wal.append_us", "us"},
	{"wal.append_fsync_us", "us"},
	{"wal.bytes_per_update", "bytes"},
	{"wal.replay_ms_per_1k", "ms"},
	{"rpc.ping_us", "us"},
	{"placement.calls_per_query", "count"},
	{"placement.call_us", "us"},
	{"placement.cluster_tax", "ratio"},
	{"budget.unexplained_pct", "%"},
	{"trace.overhead_pct", "%"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload to trace (default: all four, one after another)")
		seed    = fl.Int64("seed", 1, "seed of the graph, the request lists and the update stream")
		seconds = fl.Int("seconds", harness.RefSeconds, "run length the per-pass request counts are scaled to")
		smoke   = fl.Bool("smoke", false, "2,000-node graph and 200-request passes")
		_       = fl.Int("trace", 1, "accepted so the runner can pass its arguments through")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	specs := harness.Specs
	if *name != "" {
		spec, err := harness.SpecByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 2
		}
		specs = []harness.Spec{spec}
	}
	root, err := harness.Root()
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	binDir, err := harness.Build(root, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	t := &tracer{
		root: root, binDir: binDir, epoch: time.Now(),
		work: filepath.Join(harness.BuildDir(root), "work", fmt.Sprintf("trace-%d-%d", *seed, os.Getpid())),
		plan: func(s harness.Spec) harness.Plan { return harness.NewPlan(s, *seed, *seconds, *smoke) },
	}
	defer os.RemoveAll(t.work)
	if err := t.layers(); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	code := 0
	for _, spec := range specs {
		m, err := t.workload(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", spec.Name, err)
			return 1
		}
		fmt.Fprintf(stdout, "# %s seed=%d traced pass of %d queries\n", spec.Name, *seed, t.plan(spec).PerPass)
		metrics := map[string]any{}
		for _, l := range perLayer {
			fmt.Fprintf(stdout, "%s %s %.4f\n", l.name, l.unit, m[l.name])
			metrics[l.name] = map[string]any{"value": m[l.name], "unit": l.unit}
		}
		if t.failed > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
			code = 1
		}
		line, err := json.Marshal(map[string]any{"correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed, "metrics": metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// tracer carries what the workload-independent layer measurements found
// into each workload's traced replay.
type tracer struct {
	root, binDir, work string
	epoch              time.Time // spans are stamped in ns since here
	plan               func(harness.Spec) harness.Plan

	fixed map[string]float64 // metrics that do not depend on the workload
	// Per request of topk_uniform's first pass, in-process and in µs.
	handlerUS, topkUS []float64
	uniform           *replay // topk_uniform over HTTP

	attempted, failed int
	firstErr          error
}

func (t *tracer) count(attempted, failed int, err error) {
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil && failed > 0 {
		t.firstErr = err
	}
}

// replay is one workload's first pass over HTTP, untraced then traced.
type replay struct {
	plain, traced harness.PassStats
	floorUS       []float64
	metrics       map[string]float64
}

func p50(vs []float64) float64 { return workload.Median(vs) }

// pct is the highest-percentile helper: 0 when too few samples lie
// beyond p for it to be a percentile.
func pct(vs []float64, p float64) float64 {
	v, _ := workload.Percentile(vs, p)
	return v
}

// timeUS runs f and returns its wall time in µs.
func timeUS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// layers measures everything that does not depend on the traced
// workload: it sets topk_uniform up once, replays its first pass over
// HTTP, through Handler.ServeHTTP and through ShardedIndex.TopK, and
// times the remaining modules' public functions on the same inputs.
func (t *tracer) layers() error {
	m := map[string]float64{"host.calib_us": workload.HostCalibUS()}
	t.fixed = m
	spec, _ := harness.SpecByName("topk_uniform")
	plan := t.plan(spec)
	d, err := harness.Deploy(t.binDir, filepath.Join(t.work, "uniform"), plan)
	if err != nil {
		return err
	}
	defer d.Close()
	if t.uniform, err = t.replayHTTP(d); err != nil {
		return err
	}
	list := plan.List()
	warm, pass := plan.Pass(list, 0), plan.Pass(list, 1)

	// server: exec to first 200, five restarts of the plain server.
	var ready []float64
	for i := 0; i < 5; i++ {
		inst, err := harness.Start(t.binDir, d.Inputs, spec, "", t.work)
		if err != nil {
			return err
		}
		ready = append(ready, inst.ReadySeconds*1e3)
		inst.Stop()
	}
	m["server.ready_ms"] = p50(ready)

	// shard: open to first answer, then the pass directly through TopK.
	var sx *kdash.ShardedIndex
	var opens []float64
	for i := 0; i < 3; i++ {
		if sx != nil {
			sx.Close()
		}
		var openErr error
		opens = append(opens, timeUS(func() {
			if sx, openErr = kdash.OpenShardedIndex(d.Inputs.IndexDir, kdash.OpenOptions{}); openErr == nil {
				_, _, openErr = sx.TopK(pass[0], harness.TopK)
			}
		})/1e3)
		if openErr != nil {
			return fmt.Errorf("opening %s: %w", d.Inputs.IndexDir, openErr)
		}
	}
	defer func() { sx.Close() }()
	m["shard.open_ms"] = p50(opens)
	m["shard.index_bytes"] = dirBytes(d.Inputs.IndexDir)
	for _, q := range warm {
		if _, _, err := sx.TopK(q, harness.TopK); err != nil {
			return err
		}
	}
	direct := make([][]kdash.Result, len(pass))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, q := range pass {
		var err error
		t.topkUS = append(t.topkUS, timeUS(func() { direct[i], _, err = sx.TopK(q, harness.TopK) }))
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	// The replay loop itself allocates one closure and one slice growth
	// per query at most; what is left is the engine's.
	m["shard.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(pass))
	m["shard.topk_us"] = p50(t.topkUS)
	m["shard.topk_p99_us"] = pct(t.topkUS, 99)

	// server: the same pass through the handler on a recorder, no socket.
	h := server.New(sx)
	for i, q := range pass {
		req := httptest.NewRequest(http.MethodGet, "/topk?q="+strconv.Itoa(q)+"&k="+strconv.Itoa(harness.TopK), nil)
		rec := httptest.NewRecorder()
		t.handlerUS = append(t.handlerUS, timeUS(func() { h.ServeHTTP(rec, req) }))
		t.count(1, 0, nil)
		if err := sameAnswer(rec, direct[i]); err != nil {
			t.count(0, 1, fmt.Errorf("handler vs TopK, q=%d: %w", q, err))
		}
	}
	overhead := make([]float64, len(pass))
	for i := range pass {
		overhead[i] = t.handlerUS[i] - t.topkUS[i]
	}
	m["server.handler_topk_us"] = p50(t.handlerUS)
	m["server.overhead_us"] = p50(overhead)
	hc := server.New(sx, server.WithCache(workload.CacheEntries))
	var hits []float64
	for i := 0; i <= 1000; i++ { // the first request fills the cache
		req := httptest.NewRequest(http.MethodGet, "/topk?q="+strconv.Itoa(pass[0])+"&k="+strconv.Itoa(harness.TopK), nil)
		rec := httptest.NewRecorder()
		us := timeUS(func() { hc.ServeHTTP(rec, req) })
		if i > 0 {
			hits = append(hits, us)
		}
	}
	m["server.handler_hit_us"] = p50(hits)

	// The from-outside latency budget of topk_uniform, as paired means:
	// what of the mean request neither the loopback floor, nor the
	// handler's own overhead, nor the engine accounts for.
	if mean := workload.Mean(t.uniform.plain.LatenciesUS); mean > 0 {
		explained := workload.Mean(t.uniform.floorUS) + workload.Mean(overhead) + workload.Mean(t.topkUS)
		m["budget.unexplained_pct"] = 100 * (mean - explained) / mean
	}

	// shard: full vectors (what a cache miss costs), batches of 8, Apply.
	var vecUS, batchUS []float64
	var vec []float64
	for _, q := range pass[:min(64, len(pass))] {
		var err error
		vecUS = append(vecUS, timeUS(func() { vec, err = sx.ProximityVector(q) }))
		if err != nil {
			return err
		}
	}
	m["shard.vector_us"] = p50(vecUS)
	for i := 0; i+8 <= min(512, len(pass)); i += 8 {
		var err error
		batchUS = append(batchUS, timeUS(func() { _, _, err = sx.TopKBatch(pass[i:i+8], harness.TopK) })/8)
		if err != nil {
			return err
		}
	}
	m["shard.batch8_us_per_query"] = p50(batchUS)
	var fromVec []float64
	for i := 0; i < 200; i++ {
		fromVec = append(fromVec, timeUS(func() { topk.FromVector(vec, harness.TopK) }))
	}
	m["topk.from_vector_us"] = p50(fromVec)

	if err := applyLayer(sx, d, m); err != nil {
		return err
	}
	if err := buildLayer(d.Inputs.GraphTSV, m); err != nil {
		return err
	}
	if err := t.core(plan, m); err != nil {
		return err
	}
	kernelLayer(m)
	if err := t.walLayer(plan, m); err != nil {
		return err
	}
	return t.rpcLayer(d, m)
}

// applyLayer times ShardedIndex.Apply on two-edge deltas: three batches,
// each added and then removed again.
func applyLayer(sx *kdash.ShardedIndex, d *harness.Deployment, m map[string]float64) error {
	batches := workload.UpdateEdges(d.Plan.Graph.Nodes, d.Inputs.Edges, 3, d.Plan.Seed)
	var applyMS, rebuilt []float64
	cur := sx
	for g := 0; g < 2*len(batches); g++ {
		delta := kdash.NewDelta(cur.N())
		for _, e := range batches[g/2] {
			var err error
			if g%2 == 0 {
				err = delta.AddEdge(e.From, e.To, 1)
			} else {
				err = delta.RemoveEdge(e.From, e.To)
			}
			if err != nil {
				return err
			}
		}
		var next *kdash.ShardedIndex
		var st kdash.UpdateStats
		var err error
		applyMS = append(applyMS, timeUS(func() { next, st, err = cur.Apply(delta) })/1e3)
		if err != nil {
			return err
		}
		rebuilt = append(rebuilt, float64(st.ShardsRebuilt))
		cur = next
	}
	m["shard.apply_ms"] = p50(applyMS)
	m["shard.apply_shards_rebuilt"] = workload.Mean(rebuilt)
	return nil
}

// buildLayer times a sharded build in this process, with the options the
// kdash CLI uses.
func buildLayer(tsv string, m map[string]float64) error {
	f, err := os.Open(tsv)
	if err != nil {
		return err
	}
	g, err := kdash.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	cpu0, _ := workload.CPUSeconds(os.Getpid())
	var buildErr error
	m["shard.build_s"] = timeUS(func() {
		_, buildErr = kdash.BuildShardedIndex(g, kdash.ShardOptions{
			Shards: harness.Shards, Restart: kdash.DefaultRestart, Reorder: kdash.ReorderHybrid, Seed: 1})
	}) / 1e6
	if buildErr != nil {
		return buildErr
	}
	cpu1, _ := workload.CPUSeconds(os.Getpid())
	m["shard.build_cpu_s"] = cpu1 - cpu0
	return nil
}

// sameAnswer checks that a recorded handler response is a 200 carrying
// exactly the nodes and scores TopK returned.
func sameAnswer(rec *httptest.ResponseRecorder, want []kdash.Result) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d", rec.Code)
	}
	var r harness.TopKResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		return err
	}
	if len(r.Results) != len(want) {
		return fmt.Errorf("%d results, TopK returned %d", len(r.Results), len(want))
	}
	for i, w := range want {
		if r.Results[i].Node != w.Node || r.Results[i].Score != w.Score {
			return fmt.Errorf("rank %d: (%d, %v), TopK returned (%d, %v)", i+1, r.Results[i].Node, r.Results[i].Score, w.Node, w.Score)
		}
	}
	return nil
}

func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}

// core measures the paper's own quantities on a monolithic index the
// size of one shard, through the kdash facade: precompute time, search
// time, proximity computations per query, and inverse fill-in.
func (t *tracer) core(plan harness.Plan, m map[string]float64) error {
	spec := plan.Graph
	spec.Nodes /= harness.Shards
	spec.Communities = max(spec.Communities/harness.Shards, 1)
	b := kdash.NewBuilder(spec.Nodes)
	for _, e := range workload.GenGraph(spec, plan.Seed) {
		if err := b.AddEdge(e.From, e.To, 1); err != nil {
			return err
		}
	}
	var ix *kdash.Index
	var err error
	m["core.build_s"] = timeUS(func() { ix, err = kdash.BuildIndex(b.Build(), kdash.DefaultOptions()) }) / 1e6
	if err != nil {
		return err
	}
	m["core.nnz_inverse_per_edge"] = ix.Stats().InverseRatio
	var us, computations []float64
	for _, q := range workload.UniformQueries(spec.Nodes, 500, plan.Seed) {
		var st kdash.SearchStats
		us = append(us, timeUS(func() { _, st, err = ix.TopK(q, harness.TopK) }))
		if err != nil {
			return err
		}
		computations = append(computations, float64(st.ProximityComputations))
	}
	m["core.topk_us"] = p50(us)
	m["core.computations_per_query"] = workload.Mean(computations)
	return nil
}

// kernelLayer times the scatter kernels at the column lengths the solve
// path meets: 64 and 1024 entries through the dispatched kernel, 16
// through the scalar loop that runs below kernels.MinEntries.
func kernelLayer(m map[string]float64) {
	rng := workload.NewRNG(1, 0)
	dst := make([]float64, 8192)
	rows := make([]int32, 1024)
	vals := make([]float64, 1024)
	for i := range rows {
		rows[i] = int32(rng.Intn(len(dst)))
		vals[i] = rng.Float64()
	}
	perEntry := func(n int, f func(dst []float64, rows []int32, vals []float64, x float64)) float64 {
		const entries = 1 << 21 // per sample
		var samples []float64
		for s := 0; s < 5; s++ {
			samples = append(samples, 1e3*timeUS(func() {
				for done := 0; done < entries; done += n {
					f(dst, rows[:n], vals[:n], 0.5)
				}
			})/entries)
		}
		return p50(samples)
	}
	m["kernels.scatter_ns_per_entry_64"] = perEntry(64, kernels.ScatterAXPY)
	m["kernels.scatter_ns_per_entry_1024"] = perEntry(1024, kernels.ScatterAXPY)
	m["kernels.scalar_ns_per_entry_16"] = perEntry(16, kernels.ScalarScatterAXPY)
}

// walLayer times the log on the record the update workload writes: a
// two-edge delta.
func (t *tracer) walLayer(plan harness.Plan, m map[string]float64) error {
	delta := kdash.NewDelta(plan.Graph.Nodes)
	for _, e := range [2]workload.Edge{{From: 1, To: 2}, {From: 3, To: 4}} {
		if err := delta.AddEdge(e.From, e.To, 1); err != nil {
			return err
		}
	}
	body := delta.AppendBinary(nil)
	appendAll := func(dir string, sync wal.SyncPolicy, n int) (*wal.Log, []float64, error) {
		log, err := wal.Open(filepath.Join(t.work, dir), wal.Options{Sync: sync})
		if err != nil {
			return nil, nil, err
		}
		var us []float64
		for i := 0; i < n; i++ {
			var err error
			us = append(us, timeUS(func() { _, err = log.Append(body) }))
			if err != nil {
				log.Close()
				return nil, nil, err
			}
		}
		return log, us, nil
	}
	log, us, err := appendAll("wal-interval", wal.SyncInterval, 1000)
	if err != nil {
		return err
	}
	m["wal.append_us"] = p50(us)
	// Every segment opens with an 8-byte magic; the rest is records.
	m["wal.bytes_per_update"] = float64(log.Stats().Bytes-8) / 1000
	records := 0
	replayUS := timeUS(func() {
		err = log.Replay(0, func(uint64, []byte) error { records++; return nil })
	})
	if err == nil && records != 1000 {
		err = fmt.Errorf("wal: replayed %d of 1000 records", records)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["wal.replay_ms_per_1k"] = replayUS / 1e3
	log, us, err = appendAll("wal-always", wal.SyncAlways, 32)
	if err != nil {
		return err
	}
	m["wal.append_fsync_us"] = p50(us)
	return log.Close()
}

// rpcLayer pings one worker: the round trip no remote solve can beat.
func (t *tracer) rpcLayer(d *harness.Deployment, m map[string]float64) error {
	w, addr, err := harness.StartWorker(t.binDir, d.Inputs.IndexDir, filepath.Join(t.work, "ping-worker.log"))
	if err != nil {
		return err
	}
	defer w.Stop()
	c := rpc.NewClient(addr, nil, 0)
	defer c.Close()
	var us []float64
	for i := 0; i < 1000; i++ {
		var err error
		us = append(us, timeUS(func() { err = c.Ping() }))
		if err != nil {
			return fmt.Errorf("rpc ping: %w", err)
		}
	}
	m["rpc.ping_us"] = p50(us)
	return nil
}

// replayHTTP replays the first measured pass of a set-up workload twice
// over its connection — untraced, then with ?trace=1 — around /statz
// snapshots, and derives the client-, server- and placement-side
// metrics of that workload.
func (t *tracer) replayHTTP(d *harness.Deployment) (*replay, error) {
	r := &replay{metrics: map[string]float64{}}
	m := r.metrics
	for i := 0; i < 200; i++ {
		lat, err := d.Client.Healthz()
		if err != nil {
			return nil, err
		}
		r.floorUS = append(r.floorUS, float64(lat.Nanoseconds())/1e3)
	}
	m["client.http_floor_us"] = p50(r.floorUS)
	before, err := d.Client.Statz()
	if err != nil {
		return nil, err
	}
	r.plain = d.ReplayPass(1, false)
	after, err := d.Client.Statz()
	if err != nil {
		return nil, err
	}
	r.traced = d.ReplayPass(1, true)
	for _, s := range []harness.PassStats{r.plain, r.traced} {
		t.count(s.Attempted, s.Failed, s.FirstErr)
	}
	lat := r.plain.LatenciesUS
	queries := float64(len(lat))
	m["client.req_p90_us"] = pct(lat, 90)
	m["client.req_p99_us"] = pct(lat, 99)
	for _, v := range lat {
		m["client.req_max_us"] = max(m["client.req_max_us"], v)
	}
	m["client.update_ack_us_p50"] = p50(r.plain.AckUS)
	m["client.stall_ms_p50"] = p50(r.plain.StallUS) / 1e3
	if plain := p50(lat); plain > 0 {
		m["trace.overhead_pct"] = 100 * (p50(r.traced.LatenciesUS) - plain) / plain
	}
	delta := func(path ...string) float64 { return harness.Num(after, path...) - harness.Num(before, path...) }
	if lookups := delta("cache", "hits") + delta("cache", "misses"); lookups > 0 {
		m["server.cache_hit_ratio"] = delta("cache", "hits") / lookups
	}
	m["server.cache_evictions"] = delta("cache", "evictions")
	m["server.compactions"] = delta("wal", "compactions")
	// Per-worker call counts over the pass; the mean call time is the
	// coordinator's own, over every call since it started.
	calls, total, weighted := 0.0, 0.0, 0.0
	workersBefore, _ := harness.At(before, "index", "cluster", "workers").([]any)
	workersAfter, _ := harness.At(after, "index", "cluster", "workers").([]any)
	for i, w := range workersAfter {
		wa, _ := w.(map[string]any)
		wb, _ := workersBefore[i].(map[string]any)
		calls += harness.Num(wa, "calls") - harness.Num(wb, "calls")
		total += harness.Num(wa, "calls")
		weighted += harness.Num(wa, "calls") * harness.Num(wa, "meanMicros")
	}
	if total > 0 {
		m["placement.call_us"] = weighted / total
	}
	if queries > 0 {
		m["placement.calls_per_query"] = calls / queries
	}

	// The engine's own account of the traced pass.
	var solve, push, rank, solves, pruned, nodes []float64
	for _, tr := range r.traced.Traces {
		if tr == nil {
			continue
		}
		steps := 0.0
		for _, s := range tr.Steps {
			steps += float64(s.DurationNs)
		}
		solve, push, rank = append(solve, steps/1e3), append(push, float64(tr.SolveNs)/1e3), append(rank, float64(tr.RankNs)/1e3)
		solves, pruned, nodes = append(solves, float64(tr.Solves)), append(pruned, float64(tr.ShardsPruned)), append(nodes, float64(tr.NodesEvaluated))
	}
	m["shard.solve_us"], m["shard.push_us"], m["shard.rank_us"] = workload.Mean(solve), workload.Mean(push), workload.Mean(rank)
	m["shard.solves_per_query"] = workload.Mean(solves)
	m["shard.shards_pruned_per_query"] = workload.Mean(pruned)
	m["shard.nodes_evaluated_per_query"] = workload.Mean(nodes)
	return r, nil
}

// workload traces one workload: its own set-up (topk_uniform reuses the
// one the layer measurements made), the HTTP replays, the durability
// check on WAL workloads, and the span file.
func (t *tracer) workload(spec harness.Spec) (map[string]float64, error) {
	plan := t.plan(spec)
	r := t.uniform
	if spec.Name != "topk_uniform" {
		d, err := harness.Deploy(t.binDir, filepath.Join(t.work, spec.Name), plan)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		if r, err = t.replayHTTP(d); err != nil {
			return nil, err
		}
		if spec.WAL {
			ms, changed, err := d.CrashAndRecover()
			if err != nil {
				return nil, err
			}
			r.metrics["server.recover_ms"] = ms
			n, wrong, first := d.CheckOracle(changed...)
			t.count(n, wrong, first)
		}
		if spec.Workers > 0 {
			// Same request list as topk_uniform, so the ratio of the two
			// medians over this pass's length is the cluster tax.
			if base := p50(t.uniform.plain.LatenciesUS[:min(plan.PerPass, len(t.uniform.plain.LatenciesUS))]); base > 0 {
				r.metrics["placement.cluster_tax"] = p50(r.plain.LatenciesUS) / base
			}
		}
	}
	m := map[string]float64{}
	for _, src := range []map[string]float64{t.fixed, r.metrics} {
		for k, v := range src {
			m[k] = v
		}
	}
	return m, t.writeSpans(spec, r)
}

// span is one line of a span file. Times are ns since the traced run
// started; parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// writeSpans writes bench/out/spans-<workload>.jsonl for the traced
// pass. client.request is measured around the traced HTTP request.
// shard.topk, shard.solve[s] and shard.rank are rebuilt from the trace
// block that very request returned; server.handler (topk_uniform only)
// is the in-process handler time of the same query. Child durations are
// measured; their placement is not: a child is centred in its parent,
// solves run back to back from the start of shard.topk and the rank
// closes it. A child measured longer than its parent is cut to fit.
func (t *tracer) writeSpans(spec harness.Spec, r *replay) error {
	var spans []span
	emit := func(name string, start, end int64, parent, req int) int {
		spans = append(spans, span{ID: len(spans) + 1, Name: name, Start: start, End: end, Parent: parent, Req: req})
		return len(spans)
	}
	centred := func(start, end, dur int64) (int64, int64) {
		dur = min(dur, end-start)
		s := start + (end-start-dur)/2
		return s, s + dur
	}
	passStart := r.traced.Started.Sub(t.epoch).Nanoseconds()
	for i, tr := range r.traced.Traces {
		start := passStart + int64(r.traced.StartsUS[i]*1e3)
		end := start + int64(r.traced.LatenciesUS[i]*1e3)
		parent := emit("client.request", start, end, 0, i)
		if spec.Name == "topk_uniform" && i < len(t.handlerUS) {
			start, end = centred(start, end, int64(t.handlerUS[i]*1e3))
			parent = emit("server.handler", start, end, parent, i)
		}
		if tr == nil || tr.SolveNs+tr.RankNs == 0 {
			continue // a cache hit: nothing ran below the handler
		}
		start, end = centred(start, end, tr.SolveNs+tr.RankNs)
		parent = emit("shard.topk", start, end, parent, i)
		at := start
		for _, s := range tr.Steps {
			stepEnd := min(at+s.DurationNs, end)
			emit("shard.solve["+strconv.Itoa(s.Shard)+"]", at, stepEnd, parent, i)
			at = stepEnd
		}
		emit("shard.rank", max(end-tr.RankNs, at), end, parent, i)
	}
	outDir := filepath.Join(t.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "spans-"+spec.Name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
