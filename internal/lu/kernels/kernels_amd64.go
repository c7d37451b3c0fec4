//go:build amd64 && !noasm

package kernels

// AVX2 dispatch. The kernels need AVX2 (VBROADCASTSD, VPERMILPD, the
// VEX-encoded scalar adds) plus OS support for saving YMM state, probed
// once at init via CPUID/XGETBV — no build-time assumption beyond
// baseline amd64. Machines without AVX2 keep the scalar reference.

// cpuid executes CPUID for (eaxIn, ecxIn); implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports CPU and OS support for the AVX2 kernels.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM registers.
	xlo, _ := xgetbv0()
	if xlo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// Assembly kernel; see scatter_amd64.s.
func scatterAXPYAVX2(dst []float64, rows []int32, vals []float64, x float64)

func init() {
	if hasAVX2() {
		scatterAXPY = scatterAXPYAVX2
		implName = "avx2"
	}
}
