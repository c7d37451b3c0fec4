package server

// GET /metrics: the Prometheus text exposition (format 0.0.4) of the
// same counters /statz serves as JSON, hand-rolled through
// obs.PromWriter so the server stays dependency-free. The two surfaces
// read the same underlying counters, so they agree at any quiet
// instant; docs/OBSERVABILITY.md is the field-by-field reference and
// carries example PromQL.

import (
	"net/http"
	"net/url"
	"strconv"

	"kdash/internal/obs"
	"kdash/internal/shard"
)

// metrics handles GET /metrics.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request, _ url.Values) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st, wc := h.walSnap()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)

	// HTTP surface.
	pw.Header("kdash_http_requests_total", "Completed HTTP requests by endpoint and status code.", "counter")
	for _, name := range endpointNames {
		em := h.endpoints[name]
		for i, code := range statusCodes {
			if v := em.codes[i].Load(); v > 0 {
				pw.Metric("kdash_http_requests_total",
					[]obs.Label{{Name: "endpoint", Value: name}, {Name: "code", Value: strconv.Itoa(code)}},
					float64(v))
			}
		}
	}
	pw.Header("kdash_http_in_flight_requests", "Requests currently being served (includes this scrape).", "gauge")
	pw.Metric("kdash_http_in_flight_requests", nil, float64(h.inFlight.Load()))
	pw.Header("kdash_http_request_duration_seconds", "Request latency by endpoint.", "histogram")
	for _, name := range endpointNames {
		snap := h.endpoints[name].lat.Snapshot()
		if snap.Count > 0 {
			pw.Histogram("kdash_http_request_duration_seconds",
				[]obs.Label{{Name: "endpoint", Value: name}}, snap)
		}
	}
	pw.Header("kdash_http_errors_total", "Error responses by kind (panics also count as internal).", "counter")
	pw.Metric("kdash_http_errors_total", []obs.Label{{Name: "kind", Value: "badRequest"}}, float64(h.qBadRequest.Value()))
	pw.Metric("kdash_http_errors_total", []obs.Label{{Name: "kind", Value: "internal"}}, float64(h.qInternal.Value()))
	pw.Metric("kdash_http_errors_total", []obs.Label{{Name: "kind", Value: "panic"}}, float64(h.qPanics.Value()))
	pw.Metric("kdash_http_errors_total", []obs.Label{{Name: "kind", Value: "unavailable"}}, float64(h.qUnavailable.Value()))
	pw.Header("kdash_queries_cancelled_total", "Queries abandoned mid-solve because the client went away.", "counter")
	pw.Metric("kdash_queries_cancelled_total", nil, float64(h.qCancelled.Value()))

	// Engine work, summed over successful queries.
	pw.Header("kdash_engine_nodes_visited_total", "Nodes visited across all queries.", "counter")
	pw.Metric("kdash_engine_nodes_visited_total", nil, float64(h.visited.Value()))
	pw.Header("kdash_engine_proximity_computations_total", "Exact proximity values computed across all queries.", "counter")
	pw.Metric("kdash_engine_proximity_computations_total", nil, float64(h.proxComps.Value()))
	pw.Header("kdash_engine_terminated_early_total", "Queries answered with pruning engaged.", "counter")
	pw.Metric("kdash_engine_terminated_early_total", nil, float64(h.terminated.Value()))

	// Update surface.
	pw.Header("kdash_updates_applied_total", "Graph delta batches applied.", "counter")
	pw.Metric("kdash_updates_applied_total", nil, float64(h.qUpdates.Value()))
	pw.Header("kdash_update_shards_rebuilt_total", "Shards refactorized by updates.", "counter")
	pw.Metric("kdash_update_shards_rebuilt_total", nil, float64(h.updShards.Value()))
	pw.Header("kdash_update_repartitions_total", "Updates that triggered a re-partition.", "counter")
	pw.Metric("kdash_update_repartitions_total", nil, float64(h.updReparts.Value()))
	pw.Header("kdash_update_edge_ops_total", "Edge additions and removals applied.", "counter")
	pw.Metric("kdash_update_edge_ops_total", nil, float64(h.updEdges.Value()))
	pw.Header("kdash_update_nodes_added_total", "Nodes inserted by updates.", "counter")
	pw.Metric("kdash_update_nodes_added_total", nil, float64(h.updNodes.Value()))
	pw.Header("kdash_update_communities_reused_total", "Rebuilt shards that ordered their block from their previous epoch's Louvain communities.", "counter")
	pw.Metric("kdash_update_communities_reused_total", nil, float64(h.updCommunities.Value()))
	pw.Header("kdash_update_inverse_columns_reused_total", "Inverse-factor columns of rebuilt shards copied from the previous epoch.", "counter")
	pw.Metric("kdash_update_inverse_columns_reused_total", nil, float64(h.updColsReused.Value()))
	pw.Header("kdash_update_inverse_columns_solved_total", "Inverse-factor columns of rebuilt shards solved.", "counter")
	pw.Metric("kdash_update_inverse_columns_solved_total", nil, float64(h.updColsSolved.Value()))
	pw.Header("kdash_update_apply_seconds", "Wall time of each drain's engine apply: one per synchronous update, per WAL compaction and for the recovery drain, however many batches it merged; in WAL mode, the stall a reader sees after an ack.", "histogram")
	pw.Histogram("kdash_update_apply_seconds", nil, h.applyLat.Snapshot())
	pw.Header("kdash_update_stage_seconds_total", "Apply time by stage: graph is wall time, the build stages are summed over the rebuilt shards.", "counter")
	for i, stage := range updateStages {
		pw.Metric("kdash_update_stage_seconds_total", []obs.Label{{Name: "stage", Value: stage.name}}, float64(h.updStageNs[i].Value())/1e9)
	}

	// Process and index gauges.
	pw.Header("kdash_epoch", "Serving engine epoch (bumped by each applied update).", "gauge")
	pw.Metric("kdash_epoch", nil, float64(st.epoch))
	pw.Header("kdash_index_nodes", "Nodes in the serving index.", "gauge")
	pw.Metric("kdash_index_nodes", nil, float64(st.engine.N()))
	writeMemoryMetrics(pw, memoryStatz(st.engine.GraphBytes()))
	writeRuntimeMetrics(pw, readRuntimeStats())

	if h.cache != nil {
		hits, misses := h.cacheHits.Value(), h.cacheMisses.Value()
		entries, bytes, evictions := h.cache.stats()
		pw.Header("kdash_cache_hits_total", "/topk requests answered from a cached top-K list.", "counter")
		pw.Metric("kdash_cache_hits_total", nil, float64(hits))
		pw.Header("kdash_cache_misses_total", "/topk requests that ran the engine and (re)filled their cache entry.", "counter")
		pw.Metric("kdash_cache_misses_total", nil, float64(misses))
		pw.Header("kdash_cache_evictions_total", "Entries evicted by LRU pressure (epoch flushes excluded).", "counter")
		pw.Metric("kdash_cache_evictions_total", nil, float64(evictions))
		pw.Header("kdash_cache_entries", "Answers currently cached.", "gauge")
		pw.Metric("kdash_cache_entries", nil, float64(entries))
		pw.Header("kdash_cache_bytes", "Payload bytes held by cached answers: 16 per result plus 8 per solved-shard id.", "gauge")
		pw.Metric("kdash_cache_bytes", nil, float64(bytes))
		if total := hits + misses; total > 0 {
			pw.Header("kdash_cache_hit_ratio", "Cache hits over lookups since start.", "gauge")
			pw.Metric("kdash_cache_hit_ratio", nil, float64(hits)/float64(total))
		}
	}

	if ws := h.wals; ws.log != nil {
		ls := ws.log.Stats()
		pw.Header("kdash_wal_acked_seq", "Last WAL sequence number acknowledged to a client.", "gauge")
		pw.Metric("kdash_wal_acked_seq", nil, float64(wc.ackedSeq))
		pw.Header("kdash_wal_applied_seq", "Last WAL sequence number folded into the serving engine.", "gauge")
		pw.Metric("kdash_wal_applied_seq", nil, float64(wc.appliedSeq))
		pw.Header("kdash_wal_pending_ops", "Edge ops waiting in the memtable for the next compaction.", "gauge")
		pw.Metric("kdash_wal_pending_ops", nil, float64(wc.pendingOps))
		pw.Header("kdash_wal_appends_total", "Records appended to the WAL this process.", "counter")
		pw.Metric("kdash_wal_appends_total", nil, float64(ls.Appends))
		pw.Header("kdash_wal_fsyncs_total", "fsync calls the WAL issued.", "counter")
		pw.Metric("kdash_wal_fsyncs_total", nil, float64(ls.Fsyncs))
		pw.Header("kdash_wal_segments", "Live WAL segment files.", "gauge")
		pw.Metric("kdash_wal_segments", nil, float64(ls.Segments))
		pw.Header("kdash_wal_bytes", "Bytes across live WAL segments.", "gauge")
		pw.Metric("kdash_wal_bytes", nil, float64(ls.Bytes))
		pw.Header("kdash_wal_compactions_total", "Memtable drains applied through the engine.", "counter")
		pw.Metric("kdash_wal_compactions_total", nil, float64(wc.compactions))
		pw.Header("kdash_wal_apply_errors_total", "Drains whose engine apply failed; their batches stay staged and the next drain retries them.", "counter")
		pw.Metric("kdash_wal_apply_errors_total", nil, float64(wc.applyErrors))
		pw.Header("kdash_wal_snapshot_errors_total", "WAL snapshots that failed; the log stays untruncated until one succeeds.", "counter")
		pw.Metric("kdash_wal_snapshot_errors_total", nil, float64(wc.snapshotErrors))
		pw.Header("kdash_wal_batches_dropped_total", "Recovered WAL records skipped at startup because they no longer validate.", "counter")
		pw.Metric("kdash_wal_batches_dropped_total", nil, float64(wc.batchesDropped))
		pw.Header("kdash_wal_barrier_wait_seconds", "Time queries spent on the read barrier waiting for an acked update to be applied (queries that found nothing pending are not counted).", "histogram")
		pw.Histogram("kdash_wal_barrier_wait_seconds", nil, ws.barrierLat.Snapshot())
	}

	writeEngineMetrics(pw, st.engine.Statz())
	_ = pw.Err() // headers are sent; a broken scrape connection has no recourse
}

// writeEngineMetrics projects the engine's Statz document onto
// Prometheus series: index-wide gauges, a coordinator's per-worker
// series, then the per-shard ones.
func writeEngineMetrics(pw *obs.PromWriter, st shard.Statz) {
	pw.Header("kdash_index_shards", "Shards in the serving index.", "gauge")
	pw.Metric("kdash_index_shards", nil, float64(st.Shards))
	pw.Header("kdash_index_shards_opened", "Shards traffic has opened (lazily mapped shards open on first solve).", "gauge")
	pw.Metric("kdash_index_shards_opened", nil, float64(st.ShardsOpened))
	pw.Header("kdash_shard_solves_total_sum", "Shard factor solves across all queries this epoch (resets on update swap).", "counter")
	pw.Metric("kdash_shard_solves_total_sum", nil, float64(st.Solves))
	if st.Cluster != nil {
		writeClusterMetrics(pw, st.Cluster.Workers)
	}
	pw.Header("kdash_shard_opened", "Whether the shard's backing file is open (1) or still deferred (0).", "gauge")
	for i, sh := range st.PerShard {
		opened := 0.0
		if sh.Opened {
			opened = 1
		}
		pw.Metric("kdash_shard_opened", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, opened)
	}
	pw.Header("kdash_shard_solves_total", "Factor solves per shard this epoch (resets on update swap).", "counter")
	for i, sh := range st.PerShard {
		pw.Metric("kdash_shard_solves_total", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Solves))
	}
}

// writeClusterMetrics projects a coordinator's per-worker serving stats
// onto labelled Prometheus series, so a dashboard can tell a slow worker
// from a slow query mix without scraping the workers themselves.
func writeClusterMetrics(pw *obs.PromWriter, workers []shard.WorkerStatz) {
	series := []struct {
		name, help, typ string
		val             func(shard.WorkerStatz) float64
	}{
		{"kdash_worker_calls_total", "Solve RPCs routed to the worker.", "counter", func(w shard.WorkerStatz) float64 { return float64(w.Calls) }},
		{"kdash_worker_solves_total", "Shard solves the worker's calls ran.", "counter", func(w shard.WorkerStatz) float64 { return float64(w.Solves) }},
		{"kdash_worker_errors_total", "Worker calls that failed after retry and replay.", "counter", func(w shard.WorkerStatz) float64 { return float64(w.Errors) }},
		{"kdash_worker_replays_total", "Chain-replay recovery rounds run against the worker.", "counter", func(w shard.WorkerStatz) float64 { return float64(w.Replays) }},
		{"kdash_worker_shards", "Shards the placement map assigns to the worker.", "gauge", func(w shard.WorkerStatz) float64 { return float64(w.Shards) }},
		{"kdash_worker_call_mean_micros", "Mean worker call latency in microseconds.", "gauge", func(w shard.WorkerStatz) float64 { return w.MeanMicros }},
		{"kdash_worker_call_p99_micros", "p99 worker call latency in microseconds.", "gauge", func(w shard.WorkerStatz) float64 { return w.P99Micros }},
	}
	for _, s := range series {
		pw.Header(s.name, s.help, s.typ)
		for w, ws := range workers {
			pw.Metric(s.name, []obs.Label{{Name: "worker", Value: strconv.Itoa(w)}}, s.val(ws))
		}
	}
}
