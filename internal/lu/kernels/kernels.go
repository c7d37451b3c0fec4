// Package kernels holds the arch-specific inner loops of the solve path:
// the triangular scatter (dst[rows[k]] += vals[k]*x) that both the
// L^{-1} pass and the support-driven U^{-1} apply bottom out in.
// Implementations are selected once at init — hand-written AVX2 on
// amd64, FMA-fused assembly on arm64, pure Go everywhere else or under
// the `noasm` build tag — and every assembly kernel is property-tested
// bit-identical to the scalar reference on the architecture it runs on.
//
// # Bit-identity contract
//
// Each kernel applies exactly the multiply-and-accumulate sequence of
// its scalar reference, in the same order, so swapping implementations
// never changes a single output bit on a given architecture:
//
//   - On amd64 the Go compiler does not fuse a*b+c into an FMA, so the
//     AVX2 kernels use separate VMULPD/VADDSD steps — never FMA — to
//     round exactly where the scalar loop rounds.
//   - On arm64 the Go compiler does fuse a*b+c (FMADDD), so the arm64
//     kernels use the same fused form. Cross-architecture results may
//     differ in the last bit — they already do for the pure-Go loops —
//     but within one architecture every implementation agrees.
//
// Callers guarantee three things the kernels exploit instead of
// checking: rows and vals have equal length, every rows[k] indexes
// inside dst (the blocked factor strips are bounds-checked once when
// built or loaded), and the length is a multiple of four, with padding
// entries pointing at a dedicated trash row carrying value 0 (a zero
// product cannot flip the sign bit of a real accumulator, and the trash
// row is never read).
package kernels

// Width is the entry-count alignment the 4-wide float64 kernels
// require: blocked factor columns are padded to a multiple of Width.
const Width = 4

// Pad rounds an entry count up to the kernel alignment.
func Pad(n int) int { return (n + Width - 1) &^ (Width - 1) }

// MinEntries is the column size below which a fused scalar loop over
// the blocked strip beats a kernel call: the scatter is store-latency
// bound, so on short columns the dispatch call and the split
// bookkeeping/accumulate passes cost more than 4-wide value loads
// save. Callers run columns shorter than this through their scalar
// loop (same entry order, so the choice never changes an output bit)
// and call the kernel for the rest.
const MinEntries = 24

// Impl names the active implementation ("avx2", "neon" or "scalar"),
// for /statz and the kernels benchmark.
func Impl() string { return implName }

var implName = "scalar"

// Dispatch target, rebound by the arch init when the CPU qualifies.
var scatterAXPY = ScalarScatterAXPY

// ScatterAXPY computes dst[rows[k]] += vals[k] * x for every k in
// ascending order. len(rows) must equal len(vals) and be a multiple of
// Width; every rows[k] must index inside dst (see the package comment
// for the padding contract).
//
//kdash:noalloc
func ScatterAXPY(dst []float64, rows []int32, vals []float64, x float64) {
	scatterAXPY(dst, rows, vals, x)
}

// ScalarScatterAXPY is the pure-Go reference for ScatterAXPY: the exact
// accumulation sequence the assembly kernels must reproduce bit for bit.
//
//kdash:noalloc
func ScalarScatterAXPY(dst []float64, rows []int32, vals []float64, x float64) {
	vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
	for k, r := range rows {
		dst[r] += vals[k] * x
	}
}
