package server

// The server's statistics, each declared once: declareStats gives each
// its /statz block and key and, where it has a series, its /metrics
// name, label, HELP, TYPE and unit scale. GET /statz (JSON) and
// GET /metrics (the Prometheus text exposition, format 0.0.4,
// hand-rolled through obs.PromWriter so the server stays
// dependency-free) both render from that table, over one read per
// scrape. docs/OBSERVABILITY.md is the field-by-field reference and
// carries example PromQL.
//
// The request path only adds to the handler's counters, one atomic add
// each; nothing here runs per query.

import (
	"expvar"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kdash/internal/obs"
	"kdash/internal/shard"
	"kdash/internal/wal"
)

// reading is one scrape's read of everything both documents report.
// The engine and the update pipeline's counters are captured together
// under walSnap; the rest is read once, so the two documents agree at
// any quiet instant.
type reading struct {
	h                       *Handler
	st                      *engineState
	eng                     shard.Statz
	wal                     walCounters
	log                     wal.Stats // zero without a log
	mem                     memStats
	rt                      runtimeStats
	applies, barrier        obs.Snapshot
	cacheEntries            int
	cacheBytes, cacheEvicts int64
}

func (h *Handler) read() *reading {
	st, wc := h.walSnap()
	r := &reading{h: h, st: st, eng: st.engine.Statz(), wal: wc,
		applies: h.applyLat.Snapshot(), barrier: h.wals.barrierLat.Snapshot()}
	r.mem, r.rt = readProcess(st.engine.GraphBytes())
	if h.wals.log != nil {
		r.log = h.wals.log.Stats()
	}
	if h.cache != nil {
		r.cacheEntries, r.cacheBytes, r.cacheEvicts = h.cache.stats()
	}
	return r
}

// has reports whether a block is reported: cache, wal and load only
// when configured, and the per-worker series only for a coordinator.
func (r *reading) has(block string) bool {
	switch block {
	case "cache":
		return r.h.cache != nil
	case "wal":
		return r.h.wals.log != nil
	case "load":
		return r.h.openMode != ""
	case "cluster":
		return r.eng.Cluster != nil
	}
	return true
}

// scale relates a statistic's two renderings; the zero scale reports
// the same value on both.
type scale uint8

const (
	nanos  scale = iota + 1 // a nanosecond count on /statz, seconds on /metrics
	micros                  // seconds on /metrics, microseconds on /statz
)

// A stat is one statistic: where /statz reports it, the /metrics sample
// it is, and where its value comes from.
type stat struct {
	block, key string // the /statz block ("" the top level) and key; no key: /metrics alone reports it
	// The series family the sample begins. A stat without a name but
	// with a label is one more sample of the family above; one with
	// neither only /statz reports.
	name, typ, help string
	label           string // the sample's label, "name=value"
	scale           scale
	c               *expvar.Int            // the value: a handler counter,
	v               func(*reading) float64 // or read from the scrape
	// A family with one sample per worker or per shard, labelled by its
	// index, reads it from each one's engine stats; write renders a shape
	// no sample list fits (the histograms, endpoint × code counts),
	// header included.
	worker func(shard.WorkerStatz) float64
	shard  func(shard.ShardStatz) float64
	write  func(*obs.PromWriter, *stat, *reading)
}

func (s *stat) value(r *reading) float64 {
	if s.c != nil {
		return float64(s.c.Value())
	}
	return s.v(r)
}

// declareStats is every statistic the handler reports, in /metrics
// order. A value reaches /statz as a float64, which encodes an integer
// count as encoding/json encodes the int64 (exactly, below 2^53).
func (h *Handler) declareStats() []stat {
	stats := []stat{
		{key: "uptimeSeconds", v: func(r *reading) float64 { return time.Since(r.h.start).Seconds() }},
		{block: "load", key: "openSeconds", v: func(r *reading) float64 { return r.h.openTime.Seconds() }},

		// HTTP surface.
		{block: "queries", key: "topk", c: &h.qTopK},
		{block: "queries", key: "personalized", c: &h.qPers},
		{block: "queries", key: "proximity", c: &h.qProx},
		{block: "queries", key: "batch", c: &h.qBatch},
		{block: "queries", key: "batchQueries", c: &h.qBatchQueries},
		{block: "queries", key: "errors", v: func(r *reading) float64 { return float64(r.h.qBadRequest.Value() + r.h.qInternal.Value()) }},
		{name: "kdash_http_requests_total", typ: "counter", write: writeRequests, help: "Completed HTTP requests by endpoint and status code."},
		{block: "queries", key: "inFlight", v: func(r *reading) float64 { return float64(r.h.inFlight.Load()) }, name: "kdash_http_in_flight_requests", typ: "gauge", help: "Requests currently being served (includes this scrape)."},
		{name: "kdash_http_request_duration_seconds", typ: "histogram", write: writeDurations, help: "Request latency by endpoint."},
		{block: "queries", key: "badRequest", c: &h.qBadRequest, label: "kind=badRequest", name: "kdash_http_errors_total", typ: "counter", help: "Error responses by kind (panics also count as internal)."},
		{block: "queries", key: "internal", c: &h.qInternal, label: "kind=internal"},
		{block: "queries", key: "panics", c: &h.qPanics, label: "kind=panic"},
		{block: "queries", key: "unavailable", c: &h.qUnavailable, label: "kind=unavailable"},
		{block: "queries", key: "refused", c: &h.qRefused},
		{block: "queries", key: "cancelled", c: &h.qCancelled, name: "kdash_queries_cancelled_total", typ: "counter", help: "Queries abandoned mid-solve because the client went away."},

		// Engine work, summed over successful queries.
		{block: "work", key: "visited", c: &h.visited, name: "kdash_engine_nodes_visited_total", typ: "counter", help: "Nodes visited across all queries."},
		{block: "work", key: "proximityComputations", c: &h.proxComps, name: "kdash_engine_proximity_computations_total", typ: "counter", help: "Exact proximity values computed across all queries."},
		{block: "work", key: "terminatedEarly", c: &h.terminated, name: "kdash_engine_terminated_early_total", typ: "counter", help: "Queries answered with pruning engaged."},

		// Update surface. unsupported is kept for dashboards: every
		// served engine takes updates.
		{block: "updates", key: "unsupported", v: func(*reading) float64 { return 0 }},
		{block: "updates", key: "applied", c: &h.qUpdates, name: "kdash_updates_applied_total", typ: "counter", help: "Graph delta batches applied."},
		{block: "updates", key: "shardsRebuilt", c: &h.updShards, name: "kdash_update_shards_rebuilt_total", typ: "counter", help: "Shards refactorized by updates."},
		{block: "updates", key: "repartitions", c: &h.updReparts, name: "kdash_update_repartitions_total", typ: "counter", help: "Updates that triggered a re-partition."},
		{block: "updates", key: "edgeOps", c: &h.updEdges, name: "kdash_update_edge_ops_total", typ: "counter", help: "Edge additions and removals applied."},
		{block: "updates", key: "nodesAdded", c: &h.updNodes, name: "kdash_update_nodes_added_total", typ: "counter", help: "Nodes inserted by updates."},
		{block: "updates", key: "communitiesReused", c: &h.updCommunities, name: "kdash_update_communities_reused_total", typ: "counter", help: "Rebuilt shards that ordered their block from their previous epoch's Louvain communities."},
		{block: "updates", key: "columnsReused", c: &h.updColsReused, name: "kdash_update_inverse_columns_reused_total", typ: "counter", help: "Inverse-factor columns of rebuilt shards copied from the previous epoch."},
		{block: "updates", key: "columnsSolved", c: &h.updColsSolved, name: "kdash_update_inverse_columns_solved_total", typ: "counter", help: "Inverse-factor columns of rebuilt shards solved."},
		{block: "updates", key: "applies", v: func(r *reading) float64 { return float64(r.applies.Count) }},
		{block: "updates", key: "applyNs", v: func(r *reading) float64 { return float64(r.applies.SumNS) }},
		{name: "kdash_update_apply_seconds", typ: "histogram", write: histogramOf(func(r *reading) obs.Snapshot { return r.applies }), help: "Wall time of each drain's engine apply: one per synchronous update, per WAL compaction and for the recovery drain, however many batches it merged; in WAL mode, the stall a reader sees after an ack."},
	}
	// Apply time by stage: a <name>Ns key and a stage label each.
	for i, stage := range updateStages {
		s := stat{block: "updates", key: stage.name + "Ns", c: &h.updStageNs[i], label: "stage=" + stage.name, scale: nanos}
		if i == 0 {
			s.name, s.typ, s.help = "kdash_update_stage_seconds_total", "counter", "Apply time by stage: graph is wall time, the build stages are summed over the rebuilt shards."
		}
		stats = append(stats, s)
	}
	return append(stats, []stat{
		// Process and index gauges.
		{block: "updates", key: "epoch", v: func(r *reading) float64 { return float64(r.st.epoch) }, name: "kdash_epoch", typ: "gauge", help: "Serving engine epoch (bumped by each applied update)."},
		{v: func(r *reading) float64 { return float64(r.st.engine.N()) }, name: "kdash_index_nodes", typ: "gauge", help: "Nodes in the serving index."},

		// Memory: where the process's bytes are (memory.go).
		{block: "memory", key: "rssBytes", v: func(r *reading) float64 { return float64(r.mem.rss) }, name: "kdash_process_resident_bytes", typ: "gauge", help: "OS-reported resident set (0 where unsupported)."},
		{block: "memory", key: "factorHeapBytes", v: func(r *reading) float64 { return float64(r.mem.factorHeap) }, label: "backing=heap", name: "kdash_index_factor_bytes", typ: "gauge", help: "Index arrays by backing: Go heap or sealed off-heap copies; retired epochs count until released."},
		{block: "memory", key: "factorOffHeapBytes", v: func(r *reading) float64 { return float64(r.mem.factorOffHeap) }, label: "backing=offheap"},
		{block: "memory", key: "graphOffHeapBytes", v: func(r *reading) float64 { return float64(r.mem.graphOffHeap) }, name: "kdash_index_graph_offheap_bytes", typ: "gauge", help: "Sealed graph snapshot the serving epoch ranks over (0 once an update replaced it, or before a lazy open)."},
		{block: "memory", key: "graphHeapBytes", v: func(r *reading) float64 { return float64(r.mem.graphHeap) }, name: "kdash_index_graph_heap_bytes", typ: "gauge", help: "Graph snapshot the serving epoch ranks over when it is on the Go heap: built in process, or an update's successor, plus in-rows derived on first use."},
		{block: "memory", key: "queryScratchBytes", v: func(r *reading) float64 { return float64(r.mem.queryScratch) }, name: "kdash_query_scratch_bytes", typ: "gauge", help: "Per-query scratch the index pools: the dense residual vectors and L^-1 workspaces of its one vector pool, counted at each pool-miss allocation and released with the last epoch sharing the pool, and each push state's own arrays (BFS workspace, remote rows and values, solve records), counted at each release and released when the state is collected."},
		{block: "memory", key: "containersOpened", v: func(r *reading) float64 { return float64(r.mem.containersOpened) }, name: "kdash_index_containers_opened_total", typ: "counter", help: "Off-heap index containers (sealed copies) opened."},
		{block: "memory", key: "containersReleased", v: func(r *reading) float64 { return float64(r.mem.containersReleased) }, name: "kdash_index_containers_released_total", typ: "counter", help: "Off-heap index containers released: closed, or their last epoch collected."},
		{block: "memory", key: "containerReleasedBytes", v: func(r *reading) float64 { return float64(r.mem.containerReleasedBytes) }, name: "kdash_index_container_released_bytes_total", typ: "counter", help: "Bytes the released containers returned to the OS."},
		{block: "memory", key: "goHeapInuseBytes", v: func(r *reading) float64 { return float64(r.mem.goHeapInuse) }, name: "kdash_go_heap_inuse_bytes", typ: "gauge", help: "Go heap spans in use (objects plus their unused tails)."},
		{block: "memory", key: "goHeapGoalBytes", v: func(r *reading) float64 { return float64(r.mem.goHeapGoal) }, name: "kdash_go_heap_goal_bytes", typ: "gauge", help: "Heap size the Go pacer will let grow before the next collection."},
		{block: "memory", key: "gcCycles", v: func(r *reading) float64 { return float64(r.mem.gcCycles) }, name: "kdash_go_gc_cycles_total", typ: "counter", help: "Completed Go garbage-collection cycles."},

		// Runtime: scheduler latency and GC pause time (memory.go).
		{block: "runtime", key: "schedLatencyP50Micros", v: func(r *reading) float64 { return r.rt.schedP50 }, label: "quantile=0.5", scale: micros, name: "kdash_go_sched_latency_seconds", typ: "gauge", help: "Time runnable goroutines waited to run since start (runtime /sched/latencies:seconds), by quantile: the upper bound of the bucket the quantile falls in."},
		{block: "runtime", key: "schedLatencyP99Micros", v: func(r *reading) float64 { return r.rt.schedP99 }, label: "quantile=0.99", scale: micros},
		{block: "runtime", key: "gcPauseMicros", v: func(r *reading) float64 { return r.rt.gcPause }, scale: micros, name: "kdash_go_gc_pause_seconds_total", typ: "counter", help: "Stop-the-world GC pause time since start, summed from the runtime's pause histogram (/sched/pauses/total/gc:seconds) at bucket midpoints."},

		// Answer cache (WithCache).
		{block: "cache", key: "hits", c: &h.cacheHits, name: "kdash_cache_hits_total", typ: "counter", help: "/topk requests answered from a cached top-K list."},
		{block: "cache", key: "misses", c: &h.cacheMisses, name: "kdash_cache_misses_total", typ: "counter", help: "/topk requests that ran the engine and (re)filled their cache entry."},
		{block: "cache", key: "evictions", v: func(r *reading) float64 { return float64(r.cacheEvicts) }, name: "kdash_cache_evictions_total", typ: "counter", help: "Entries evicted by LRU pressure (epoch flushes excluded)."},
		{block: "cache", key: "entries", v: func(r *reading) float64 { return float64(r.cacheEntries) }, name: "kdash_cache_entries", typ: "gauge", help: "Answers currently cached."},
		{block: "cache", key: "bytes", v: func(r *reading) float64 { return float64(r.cacheBytes) }, name: "kdash_cache_bytes", typ: "gauge", help: "Payload bytes held by cached answers: 16 per result plus 8 per solved-shard id."},
		{block: "cache", name: "kdash_cache_hit_ratio", typ: "gauge", write: writeHitRatio, help: "Cache hits over lookups since start."},

		// Durable updates (NewDurable): the pipeline's counters and the log's.
		{block: "wal", key: "pendingBatches", v: func(r *reading) float64 { return float64(r.wal.pendingBatches) }},
		{block: "wal", key: "acked", v: func(r *reading) float64 { return float64(r.wal.acked) }},
		{block: "wal", key: "replayedRecords", v: func(r *reading) float64 { return float64(r.wal.replayed) }},
		{block: "wal", key: "snapshots", v: func(r *reading) float64 { return float64(r.wal.snapshots) }},
		{block: "wal", key: "lastSeq", v: func(r *reading) float64 { return float64(r.log.LastSeq) }},
		{block: "wal", key: "rotations", v: func(r *reading) float64 { return float64(r.log.Rotations) }},
		{block: "wal", key: "tornBytesDropped", v: func(r *reading) float64 { return float64(r.log.TornBytesDropped) }},
		{block: "wal", key: "segmentsCorrupt", v: func(r *reading) float64 { return float64(r.log.SegmentsCorrupt) }},
		{block: "wal", key: "ackedSeq", v: func(r *reading) float64 { return float64(r.wal.ackedSeq) }, name: "kdash_wal_acked_seq", typ: "gauge", help: "Last WAL sequence number acknowledged to a client."},
		{block: "wal", key: "appliedSeq", v: func(r *reading) float64 { return float64(r.wal.appliedSeq) }, name: "kdash_wal_applied_seq", typ: "gauge", help: "Last WAL sequence number folded into the serving engine."},
		{block: "wal", key: "pendingOps", v: func(r *reading) float64 { return float64(r.wal.pendingOps) }, name: "kdash_wal_pending_ops", typ: "gauge", help: "Edge ops waiting in the memtable for the next compaction."},
		{block: "wal", key: "appends", v: func(r *reading) float64 { return float64(r.log.Appends) }, name: "kdash_wal_appends_total", typ: "counter", help: "Records appended to the WAL this process."},
		{block: "wal", key: "fsyncs", v: func(r *reading) float64 { return float64(r.log.Fsyncs) }, name: "kdash_wal_fsyncs_total", typ: "counter", help: "fsync calls the WAL issued."},
		{block: "wal", key: "segments", v: func(r *reading) float64 { return float64(r.log.Segments) }, name: "kdash_wal_segments", typ: "gauge", help: "Live WAL segment files."},
		{block: "wal", key: "bytes", v: func(r *reading) float64 { return float64(r.log.Bytes) }, name: "kdash_wal_bytes", typ: "gauge", help: "Bytes across live WAL segments."},
		{block: "wal", key: "compactions", v: func(r *reading) float64 { return float64(r.wal.compactions) }, name: "kdash_wal_compactions_total", typ: "counter", help: "Memtable drains applied through the engine."},
		{block: "wal", key: "applyErrors", v: func(r *reading) float64 { return float64(r.wal.applyErrors) }, name: "kdash_wal_apply_errors_total", typ: "counter", help: "Drains whose engine apply failed; their batches stay staged and the next drain retries them."},
		{block: "wal", key: "snapshotErrors", v: func(r *reading) float64 { return float64(r.wal.snapshotErrors) }, name: "kdash_wal_snapshot_errors_total", typ: "counter", help: "WAL snapshots that failed; the log stays untruncated until one succeeds."},
		{block: "wal", key: "batchesDropped", v: func(r *reading) float64 { return float64(r.wal.batchesDropped) }, name: "kdash_wal_batches_dropped_total", typ: "counter", help: "Recovered WAL records skipped at startup because they no longer validate."},
		{block: "wal", key: "barrierWaits", v: func(r *reading) float64 { return float64(r.barrier.Count) }},
		{block: "wal", key: "barrierWaitNs", v: func(r *reading) float64 { return float64(r.barrier.SumNS) }},
		{block: "wal", name: "kdash_wal_barrier_wait_seconds", typ: "histogram", write: histogramOf(func(r *reading) obs.Snapshot { return r.barrier }), help: "Time queries spent on the read barrier waiting for an acked update to be applied (queries that found nothing pending are not counted)."},

		// The engine's own document: the /statz "index" block is its
		// typed shard.Statz, projected here onto index-wide gauges, a
		// coordinator's per-worker series, then the per-shard ones.
		{v: func(r *reading) float64 { return float64(r.eng.Shards) }, name: "kdash_index_shards", typ: "gauge", help: "Shards in the serving index."},
		{v: func(r *reading) float64 { return float64(r.eng.ShardsOpened) }, name: "kdash_index_shards_opened", typ: "gauge", help: "Shards traffic has opened (lazily mapped shards open on first solve)."},
		{v: func(r *reading) float64 { return float64(r.eng.Solves) }, name: "kdash_shard_solves_total_sum", typ: "counter", help: "Shard factor solves across all queries this epoch (resets on update swap)."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return float64(w.Calls) }, name: "kdash_worker_calls_total", typ: "counter", help: "Solve RPCs routed to the worker."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return float64(w.Solves) }, name: "kdash_worker_solves_total", typ: "counter", help: "Shard solves the worker's calls ran."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return float64(w.Errors) }, name: "kdash_worker_errors_total", typ: "counter", help: "Worker calls that failed after retry and replay."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return float64(w.Replays) }, name: "kdash_worker_replays_total", typ: "counter", help: "Chain-replay recovery rounds run against the worker."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return float64(w.Shards) }, name: "kdash_worker_shards", typ: "gauge", help: "Shards the placement map assigns to the worker."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return w.MeanMicros }, name: "kdash_worker_call_mean_micros", typ: "gauge", help: "Mean worker call latency in microseconds."},
		{block: "cluster", worker: func(w shard.WorkerStatz) float64 { return w.P99Micros }, name: "kdash_worker_call_p99_micros", typ: "gauge", help: "p99 worker call latency in microseconds."},
		{shard: func(s shard.ShardStatz) float64 { return boolValue(s.Opened) }, name: "kdash_shard_opened", typ: "gauge", help: "Whether the shard's backing file is open (1) or still deferred (0)."},
		{shard: func(s shard.ShardStatz) float64 { return float64(s.Solves) }, name: "kdash_shard_solves_total", typ: "counter", help: "Factor solves per shard this epoch (resets on update swap)."},
	}...)
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeRequests writes the completed requests by endpoint and status
// code, the codes each endpoint has answered only.
func writeRequests(pw *obs.PromWriter, s *stat, r *reading) {
	pw.Header(s.name, s.help, s.typ)
	for _, name := range endpointNames {
		em := r.h.endpoints[name]
		for i, code := range statusCodes {
			if v := em.codes[i].Load(); v > 0 {
				pw.Metric(s.name, []obs.Label{{Name: "endpoint", Value: name}, {Name: "code", Value: strconv.Itoa(code)}}, float64(v))
			}
		}
	}
}

// writeDurations writes each endpoint's latency histogram, for the
// endpoints that have served a request.
func writeDurations(pw *obs.PromWriter, s *stat, r *reading) {
	pw.Header(s.name, s.help, s.typ)
	for _, name := range endpointNames {
		if snap := r.h.endpoints[name].lat.Snapshot(); snap.Count > 0 {
			pw.Histogram(s.name, []obs.Label{{Name: "endpoint", Value: name}}, snap)
		}
	}
}

func histogramOf(snap func(*reading) obs.Snapshot) func(*obs.PromWriter, *stat, *reading) {
	return func(pw *obs.PromWriter, s *stat, r *reading) {
		pw.Header(s.name, s.help, s.typ)
		pw.Histogram(s.name, nil, snap(r))
	}
}

// writeHitRatio writes the cache's hit ratio once it has been looked up.
func writeHitRatio(pw *obs.PromWriter, s *stat, r *reading) {
	hits, misses := r.h.cacheHits.Value(), r.h.cacheMisses.Value()
	if total := hits + misses; total > 0 {
		pw.Header(s.name, s.help, s.typ)
		pw.Metric(s.name, nil, float64(hits)/float64(total))
	}
}

// writeMetrics writes the series of the stats whose block r reports.
func writeMetrics(pw *obs.PromWriter, stats []stat, r *reading) {
	family := ""
	for i := range stats {
		s := &stats[i]
		switch {
		case !r.has(s.block):
		case s.write != nil:
			s.write(pw, s, r)
		case s.worker != nil:
			pw.Header(s.name, s.help, s.typ)
			for i, w := range r.eng.Cluster.Workers {
				pw.Metric(s.name, []obs.Label{{Name: "worker", Value: strconv.Itoa(i)}}, s.worker(w))
			}
		case s.shard != nil:
			pw.Header(s.name, s.help, s.typ)
			for i, sh := range r.eng.PerShard {
				pw.Metric(s.name, []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, s.shard(sh))
			}
		case s.name != "":
			family = s.name
			pw.Header(s.name, s.help, s.typ)
			fallthrough
		case s.label != "":
			var labels []obs.Label
			if name, val, ok := strings.Cut(s.label, "="); ok {
				labels = []obs.Label{{Name: name, Value: val}}
			}
			v := s.value(r)
			if s.scale == nanos {
				v /= 1e9
			}
			pw.Metric(family, labels, v)
		}
	}
}

// metrics handles GET /metrics.
func (h *Handler) metrics(w http.ResponseWriter, req *http.Request, _ url.Values) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	r := h.read()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)
	writeMetrics(pw, h.stats, r)
	_ = pw.Err() // headers are sent; a broken scrape connection has no recourse
}

// statz handles GET /statz: every declared key in its block, each
// endpoint's latency summary, and the engine's own document (per-shard
// sizes, cut statistics and solves), so operators can watch shard
// balance and pruning effectiveness in production.
func (h *Handler) statz(w http.ResponseWriter, req *http.Request, _ url.Values) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	r := h.read()
	doc := map[string]any{"index": r.eng}
	blocks := map[string]map[string]any{"": doc}
	for i := range h.stats {
		s := &h.stats[i]
		if s.key == "" || !r.has(s.block) {
			continue
		}
		b := blocks[s.block]
		if b == nil {
			b = map[string]any{}
			blocks[s.block], doc[s.block] = b, b
		}
		v := s.value(r)
		if s.scale == micros {
			v *= 1e6
		}
		b[s.key] = v
	}
	if r.has("load") {
		blocks["load"]["mode"] = h.openMode
	}
	if r.has("wal") {
		blocks["wal"]["fsyncPolicy"] = h.wals.cfg.Sync.String()
	}
	// Each endpoint's request count, mean and tail quantiles in
	// microseconds; endpoints that have served nothing are omitted.
	lat := map[string]any{}
	for _, name := range endpointNames {
		if s := h.endpoints[name].lat.Snapshot(); s.Count > 0 {
			lat[name] = map[string]any{
				"count":      s.Count,
				"meanMicros": s.Mean() / 1e3,
				"p50Micros":  s.Quantile(0.5) / 1e3,
				"p99Micros":  s.Quantile(0.99) / 1e3,
				"p999Micros": s.Quantile(0.999) / 1e3,
			}
		}
	}
	if len(lat) > 0 {
		doc["latency"] = lat
	}
	writeJSON(w, doc)
}
