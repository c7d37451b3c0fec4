package server

// The memory block /statz and /metrics share: where the process's bytes
// are, as far as the server can attribute them. The index arrays are
// split by backing — on the Go heap (built or rebuilt in process, or
// loaded into a Go buffer), in sealed off-heap copies (copy-mode loads
// where the platform maps memory) and in file mappings (-mmap) — beside
// the off-heap containers opened and released so far, the Go heap as
// the collector paces it, and the OS resident set over all of it.

import (
	"runtime/metrics"

	"kdash/internal/core"
	"kdash/internal/mmapio"
	"kdash/internal/obs"
	"kdash/internal/procmem"
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

// memoryStatz reads the memory block. Each figure is read once, so the
// two surfaces agree at any quiet instant.
func memoryStatz() map[string]int64 {
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
		// unsupported): with a memory-mapped index it tracks the pages
		// queries have actually faulted in, which heap metrics cannot
		// see.
		"rssBytes":               procmem.Resident(),
		"factorHeapBytes":        core.HeapBytes(),
		"factorOffHeapBytes":     ms.SealedBytes,
		"factorMappedBytes":      ms.MappedBytes,
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
	pw.Header("kdash_index_factor_bytes", "Index arrays by backing: Go heap, sealed off-heap copies, file mappings; retired epochs count until released.", "gauge")
	for _, b := range []struct{ label, key string }{
		{"heap", "factorHeapBytes"},
		{"offheap", "factorOffHeapBytes"},
		{"mapped", "factorMappedBytes"},
	} {
		pw.Metric("kdash_index_factor_bytes", []obs.Label{{Name: "backing", Value: b.label}}, float64(mem[b.key]))
	}
	series := []struct{ key, name, help, typ string }{
		{"containersOpened", "kdash_index_containers_opened_total", "Off-heap index containers (sealed copies and file mappings) opened.", "counter"},
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
