package experiments

// The kernels microbenchmark: throughput of the solve path's inner
// loop, the internal/lu/kernels scatter, comparing the pure-Go scalar
// reference against the runtime-dispatched implementation (AVX2 on
// amd64, NEON on arm64 — Impl() names it). The strips are synthetic
// blocked-CSC columns (ascending strided rows, padded to the kernel
// alignment), so the numbers isolate the scatter loop from graph
// structure: this is the hardware ceiling the blocked layout buys,
// tracked in BENCH_kernels.json alongside the end-to-end query numbers
// in BENCH_shards.json.

import (
	"fmt"
	"io"
	"time"

	"kdash/internal/lu/kernels"
)

// KernelRow is one (kernel, implementation, strip length) measurement.
type KernelRow struct {
	Kernel  string  // scatter64
	Impl    string  // "scalar" or the dispatched implementation (avx2/neon)
	Entries int     // entries per column strip
	NsPerOp float64 // nanoseconds per kernel call (best of 3)
	GBps    float64 // bytes touched per second (strip reads + dst read/modify/write)
}

// kernelStripLens is the strip-length sweep: a short column near the
// fused-scalar threshold, a mid column, and a strip long enough to
// stream from L2 — the regimes the adaptive MinEntries dispatch divides.
var kernelStripLens = []int{64, 4096, 65536}

// kernelBytes64 is the bytes touched per strip entry, the denominator
// of the GB/s column: every entry streams its value (8 bytes) and int32
// row, and read-modify-writes its dst accumulator (16 bytes).
const kernelBytes64 = 8 + 4 + 16

// Kernels measures the scatter kernel at each strip length for both
// implementations. The scalar rows are the portable baseline; the
// dispatched rows show what the active CPU's vector unit adds (under
// the noasm tag, or on CPUs without AVX2, both name "scalar" and
// agree).
func Kernels(Config) ([]KernelRow, error) {
	var rows []KernelRow
	for _, n := range kernelStripLens {
		strip := makeKernelStrip(n)
		rows = append(rows,
			measureKernel("scatter64", "scalar", n, kernelBytes64, func() {
				kernels.ScalarScatterAXPY(strip.dst, strip.rows, strip.vals, 0.5)
			}),
			measureKernel("scatter64", kernels.Impl(), n, kernelBytes64, func() {
				kernels.ScatterAXPY(strip.dst, strip.rows, strip.vals, 0.5)
			}),
		)
	}
	return rows, nil
}

// kernelStrip is one synthetic blocked column shared by both
// implementations at a given length: ascending rows strided by 2 (a
// scatter, not a dense sweep, but still the monotone order the blocked
// layout guarantees).
type kernelStrip struct {
	rows []int32
	vals []float64
	dst  []float64
}

func makeKernelStrip(n int) *kernelStrip {
	s := &kernelStrip{
		rows: make([]int32, n),
		vals: make([]float64, n),
		dst:  make([]float64, 2*n),
	}
	for k := 0; k < n; k++ {
		s.rows[k] = int32(2 * k)
		s.vals[k] = 1 / float64(k+2)
	}
	return s
}

// measureKernel times fn: iterations are calibrated so one sample runs
// ~10ms of wall clock, and the best of three samples is kept — the
// standard defense against scheduler noise on a shared box.
func measureKernel(kernel, impl string, entries, bytesPer int, fn func()) KernelRow {
	fn() // warm: fault in the strips, settle the dispatch
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start); d >= 2*time.Millisecond || iters >= 1<<24 {
			target := 10 * time.Millisecond
			if scaled := int(float64(iters) * float64(target) / float64(d)); scaled > iters {
				iters = scaled
			}
			break
		}
		iters *= 4
	}
	best := time.Duration(1<<63 - 1)
	for sample := 0; sample < 3; sample++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	ns := float64(best.Nanoseconds()) / float64(iters)
	return KernelRow{
		Kernel:  kernel,
		Impl:    impl,
		Entries: entries,
		NsPerOp: ns,
		GBps:    float64(entries*bytesPer) / ns, // bytes/ns == GB/s
	}
}

// WriteKernelRows formats the kernel sweep as a table.
func WriteKernelRows(w io.Writer, rows []KernelRow) {
	fmt.Fprintf(w, "%-10s %-8s %9s %14s %9s\n", "kernel", "impl", "entries", "ns/op", "GB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %9d %14.1f %9.2f\n", r.Kernel, r.Impl, r.Entries, r.NsPerOp, r.GBps)
	}
}
