//go:build arm64 && !noasm

#include "textflag.h"

// arm64 scatter kernel. The Go compiler fuses dst[r] += v*x into
// FMADDD on arm64, so the kernel uses the same fused form — one
// rounding per entry — to stay bit-identical to the compiled scalar
// reference. It unrolls by four with post-increment index/value loads;
// the gather/scatter halves stay scalar (no NEON scatter store) and run
// in ascending entry order, which keeps repeated trash rows in the
// padding tail safe.

// func scatterAXPYNEON(dst []float64, rows []int32, vals []float64, x float64)
TEXT ·scatterAXPYNEON(SB), NOSPLIT, $0-80
	MOVD  dst_base+0(FP), R0
	MOVD  rows_base+24(FP), R1
	MOVD  rows_len+32(FP), R2
	MOVD  vals_base+48(FP), R3
	FMOVD x+72(FP), F0
	LSR   $2, R2, R2          // quads; len is a multiple of 4 by contract
	CBZ   R2, done

loop:
	MOVWU.P 4(R1), R4         // rows[k..k+3]; non-negative, so unsigned
	MOVWU.P 4(R1), R5         // word loads are exact
	MOVWU.P 4(R1), R6
	MOVWU.P 4(R1), R7
	ADD     R4<<3, R0, R4     // &dst[r]
	ADD     R5<<3, R0, R5
	ADD     R6<<3, R0, R6
	ADD     R7<<3, R0, R7

	FMOVD.P 8(R3), F1         // v = vals[k]
	FMOVD   (R4), F2
	FMADDD  F0, F2, F1, F2    // acc = acc + v*x, one rounding
	FMOVD   F2, (R4)

	FMOVD.P 8(R3), F1
	FMOVD   (R5), F2
	FMADDD  F0, F2, F1, F2
	FMOVD   F2, (R5)

	FMOVD.P 8(R3), F1
	FMOVD   (R6), F2
	FMADDD  F0, F2, F1, F2
	FMOVD   F2, (R6)

	FMOVD.P 8(R3), F1
	FMOVD   (R7), F2
	FMADDD  F0, F2, F1, F2
	FMOVD   F2, (R7)

	SUB  $1, R2, R2
	CBNZ R2, loop

done:
	RET
