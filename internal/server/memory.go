package server

// The memory block /statz and /metrics share: where the process's bytes
// are, as far as the server can attribute them. The index arrays are
// split by backing — on the Go heap (built or rebuilt in process, or
// loaded into a Go buffer) and in sealed off-heap copies (loads where
// the platform maps memory) — beside the serving epoch's graph
// snapshot, the shards' pooled query scratch, the off-heap containers
// opened and released so far, the Go heap as the collector paces it,
// and the OS resident set over all of it. Beside it, the runtime block:
// scheduler latency and GC pause time, where the wakeups a server
// causes show.

import (
	"math"
	"runtime/metrics"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/mmapio"
	"kdash/internal/obs"
	"kdash/internal/procmem"
	"kdash/internal/shard"
)

// goMemSamples are the runtime/metrics the block reads: heap objects
// plus the unused tail of their spans make the heap in use (MemStats'
// HeapInuse, without a stop-the-world), the pacer's goal and the
// completed cycles.
var goMemSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
}

// memoryStatz reads the memory block; graphSealed and graphHeap are the
// serving engine's GraphBytes. Each figure is read once, so the two
// surfaces agree at any quiet instant.
func memoryStatz(graphSealed, graphHeap int64) map[string]int64 {
	samples := make([]metrics.Sample, len(goMemSamples))
	for i, name := range goMemSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) int64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0 // not exported by this runtime
		}
		return int64(samples[i].Value.Uint64())
	}
	ms := mmapio.ReadStats()
	return map[string]int64{
		// rssBytes is the OS-reported resident set (0 where
		// unsupported): it counts the sealed off-heap index memory,
		// which heap metrics cannot see.
		"rssBytes":        procmem.Resident(),
		"factorHeapBytes": core.HeapBytes(),
		// Sealed memory holds factors and graph snapshots; the
		// snapshots' share is counted apart.
		"factorOffHeapBytes":     ms.SealedBytes - graph.SealedSnapshotBytes(),
		"graphOffHeapBytes":      graphSealed,
		"graphHeapBytes":         graphHeap,
		"queryScratchBytes":      shard.QueryScratchBytes(),
		"containersOpened":       ms.Opened,
		"containersReleased":     ms.Released,
		"containerReleasedBytes": ms.ReleasedBytes,
		"goHeapInuseBytes":       val(0) + val(1),
		"goHeapGoalBytes":        val(2),
		"gcCycles":               val(3),
	}
}

// writeMemoryMetrics projects the memory block onto Prometheus series.
func writeMemoryMetrics(pw *obs.PromWriter, mem map[string]int64) {
	pw.Header("kdash_process_resident_bytes", "OS-reported resident set (0 where unsupported).", "gauge")
	pw.Metric("kdash_process_resident_bytes", nil, float64(mem["rssBytes"]))
	pw.Header("kdash_index_factor_bytes", "Index arrays by backing: Go heap or sealed off-heap copies; retired epochs count until released.", "gauge")
	for _, b := range []struct{ label, key string }{
		{"heap", "factorHeapBytes"},
		{"offheap", "factorOffHeapBytes"},
	} {
		pw.Metric("kdash_index_factor_bytes", []obs.Label{{Name: "backing", Value: b.label}}, float64(mem[b.key]))
	}
	series := []struct{ key, name, help, typ string }{
		{"graphOffHeapBytes", "kdash_index_graph_offheap_bytes", "Sealed graph snapshot the serving epoch ranks over (0 once an update replaced it, or before a lazy open).", "gauge"},
		{"graphHeapBytes", "kdash_index_graph_heap_bytes", "Graph snapshot the serving epoch ranks over when it is on the Go heap: built in process, or an update's successor, plus in-rows derived on first use.", "gauge"},
		{"queryScratchBytes", "kdash_query_scratch_bytes", "Per-query scratch the index pools: the dense residual vectors and L^-1 workspaces of its one vector pool, counted at each pool-miss allocation and released with the last epoch sharing the pool, and each push state's own arrays (BFS workspace, remote rows and values, solve records), counted at each release and released when the state is collected.", "gauge"},
		{"containersOpened", "kdash_index_containers_opened_total", "Off-heap index containers (sealed copies) opened.", "counter"},
		{"containersReleased", "kdash_index_containers_released_total", "Off-heap index containers released: closed, or their last epoch collected.", "counter"},
		{"containerReleasedBytes", "kdash_index_container_released_bytes_total", "Bytes the released containers returned to the OS.", "counter"},
		{"goHeapInuseBytes", "kdash_go_heap_inuse_bytes", "Go heap spans in use (objects plus their unused tails).", "gauge"},
		{"goHeapGoalBytes", "kdash_go_heap_goal_bytes", "Heap size the Go pacer will let grow before the next collection.", "gauge"},
		{"gcCycles", "kdash_go_gc_cycles_total", "Completed Go garbage-collection cycles.", "counter"},
	}
	for _, s := range series {
		pw.Header(s.name, s.help, s.typ)
		pw.Metric(s.name, nil, float64(mem[s.key]))
	}
}

// schedSamples are the runtime/metrics the runtime block reads: how
// long runnable goroutines waited to run, and the stop-the-world pauses
// the collector made, each a histogram since the process started.
var schedSamples = []string{
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
}

// runtimeStats is the runtime block /statz and /metrics share: the
// scheduler latency's median and 99th percentile (the upper bound of
// the bucket each falls in) and the total GC pause time (each pause
// bucket's count at its midpoint), all in seconds since start.
type runtimeStats struct {
	schedP50, schedP99, gcPause float64
}

func readRuntimeStats() runtimeStats {
	samples := make([]metrics.Sample, len(schedSamples))
	for i, name := range schedSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var rs runtimeStats
	if h := float64Histogram(samples[0]); h != nil {
		rs.schedP50, rs.schedP99 = histQuantile(h, 0.5), histQuantile(h, 0.99)
	}
	if h := float64Histogram(samples[1]); h != nil {
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			rs.gcPause += float64(n) * (lo + hi) / 2
		}
	}
	return rs
}

// float64Histogram is s's histogram, or nil when this runtime does not
// export it.
func float64Histogram(s metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histQuantile is the upper bound of the bucket holding quantile q
// (its lower bound for the last, unbounded bucket); 0 when empty.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	target, seen := q*float64(total), uint64(0)
	for i, n := range h.Counts {
		seen += n
		if float64(seen) >= target && n > 0 {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// statz is the /statz "runtime" block, in microseconds.
func (rs runtimeStats) statz() map[string]float64 {
	return map[string]float64{
		"schedLatencyP50Micros": rs.schedP50 * 1e6,
		"schedLatencyP99Micros": rs.schedP99 * 1e6,
		"gcPauseMicros":         rs.gcPause * 1e6,
	}
}

// writeRuntimeMetrics projects the runtime block onto Prometheus series.
func writeRuntimeMetrics(pw *obs.PromWriter, rs runtimeStats) {
	pw.Header("kdash_go_sched_latency_seconds", "Time runnable goroutines waited to run since start (runtime /sched/latencies:seconds), by quantile: the upper bound of the bucket the quantile falls in.", "gauge")
	pw.Metric("kdash_go_sched_latency_seconds", []obs.Label{{Name: "quantile", Value: "0.5"}}, rs.schedP50)
	pw.Metric("kdash_go_sched_latency_seconds", []obs.Label{{Name: "quantile", Value: "0.99"}}, rs.schedP99)
	pw.Header("kdash_go_gc_pause_seconds_total", "Stop-the-world GC pause time since start, summed from the runtime's pause histogram (/sched/pauses/total/gc:seconds) at bucket midpoints.", "counter")
	pw.Metric("kdash_go_gc_pause_seconds_total", nil, rs.gcPause)
}
