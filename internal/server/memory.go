package server

// The memory and runtime blocks' figures (stats.go declares their keys
// and series): where the process's bytes are, as far as the server can
// attribute them — index arrays on the Go heap and in sealed off-heap
// copies, the serving epoch's graph snapshot, pooled query scratch, the
// off-heap containers opened and released, the Go heap and the OS
// resident set over all of it — and the scheduler latency and GC pause
// time where the wakeups a server causes show.

import (
	"math"
	"runtime/metrics"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/mmapio"
	"kdash/internal/procmem"
	"kdash/internal/shard"
)

// runtimeSamples are the runtime/metrics both blocks read, at once:
// heap objects plus the unused tail of their spans make the heap in use
// (MemStats' HeapInuse, without a stop-the-world), then the pacer's
// goal, the completed cycles, and two histograms since the process
// started — how long runnable goroutines waited to run, and the
// stop-the-world pauses the collector made.
var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
}

// memStats is the memory block's figures.
type memStats struct {
	// rss is the OS-reported resident set (0 where unsupported): it
	// counts the sealed off-heap index memory, which heap metrics
	// cannot see.
	rss                                                       int64
	factorHeap, factorOffHeap, graphOffHeap, graphHeap        int64
	queryScratch                                              int64
	containersOpened, containersReleased                      int64
	containerReleasedBytes, goHeapInuse, goHeapGoal, gcCycles int64
}

// runtimeStats is the runtime block's figures: the scheduler latency's
// median and 99th percentile (the upper bound of the bucket each falls
// in) and the total GC pause time (each pause bucket's count at its
// midpoint), all in seconds since start.
type runtimeStats struct {
	schedP50, schedP99, gcPause float64
}

// readProcess reads both blocks; graphSealed and graphHeap are the
// serving engine's GraphBytes.
func readProcess(graphSealed, graphHeap int64) (memStats, runtimeStats) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
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
	mem := memStats{
		rss:        procmem.Resident(),
		factorHeap: core.HeapBytes(),
		// Sealed memory holds factors and graph snapshots; the
		// snapshots' share is counted apart.
		factorOffHeap:          ms.SealedBytes - graph.SealedSnapshotBytes(),
		graphOffHeap:           graphSealed,
		graphHeap:              graphHeap,
		queryScratch:           shard.QueryScratchBytes(),
		containersOpened:       ms.Opened,
		containersReleased:     ms.Released,
		containerReleasedBytes: ms.ReleasedBytes,
		goHeapInuse:            val(0) + val(1),
		goHeapGoal:             val(2),
		gcCycles:               val(3),
	}
	var rs runtimeStats
	if h := float64Histogram(samples[4]); h != nil {
		rs.schedP50, rs.schedP99 = histQuantile(h, 0.5), histQuantile(h, 0.99)
	}
	if h := float64Histogram(samples[5]); h != nil {
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
	return mem, rs
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
