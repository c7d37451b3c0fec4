// Package procmem reads the calling process's OS-reported memory
// footprint. Heap profilers cannot see memory-mapped index pages — the
// whole point of the mmap load path is that they never cross the Go
// heap — so the server's /statz reports the resident set the kernel
// accounts instead. Platforms without a
// supported source report 0 rather than guessing.
package procmem

// Resident returns the process's resident set size in bytes, or 0 where
// the platform offers no cheap source.
func Resident() int64 { return resident() }
