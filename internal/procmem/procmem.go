// Package procmem reads the calling process's OS-reported memory
// footprint. Heap profilers cannot see a loaded index's sealed off-heap
// memory — it never crosses the Go heap — so the server's /statz
// reports the resident set the kernel accounts instead. Platforms
// without a supported source report 0 rather than guessing.
package procmem

// Resident returns the process's resident set size in bytes, or 0 where
// the platform offers no cheap source.
func Resident() int64 { return resident() }
