//go:build arm64 && !noasm

package kernels

// arm64 dispatch. NEON and scalar FMA are baseline on arm64, so no
// runtime feature probe is needed; the kernels are installed
// unconditionally. They use fused multiply-adds (FMADDD / VFMLA)
// because the Go compiler fuses a*b+c on arm64 — see the bit-identity
// contract in the package comment.

// Assembly kernel; see scatter_arm64.s.
func scatterAXPYNEON(dst []float64, rows []int32, vals []float64, x float64)

func init() {
	scatterAXPY = scatterAXPYNEON
	implName = "neon"
}
