//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 scatter kernel: four products per iteration
// computed with one VMULPD (never FMA — the Go compiler does not fuse
// on amd64, and the scalar reference rounds the multiply before the
// add), then four scalar read-add-write steps in ascending entry order.
// The adds stay scalar because AVX2 has no scatter store; keeping them
// in entry order is what makes the kernel bit-identical to the scalar
// loop even though a blocked column may repeat its trash row in the
// padding tail. All float ops are VEX-encoded to avoid SSE/AVX
// transition stalls; VZEROUPPER before RET.

// func scatterAXPYAVX2(dst []float64, rows []int32, vals []float64, x float64)
TEXT ·scatterAXPYAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         rows_base+24(FP), SI
	MOVQ         rows_len+32(FP), CX
	MOVQ         vals_base+48(FP), DX
	VBROADCASTSD x+72(FP), Y0
	XORQ         AX, AX
	SHRQ         $2, CX       // quads; len is a multiple of 4 by contract
	JZ           done

loop:
	VMOVUPD (DX)(AX*8), Y1    // vals[k..k+3]
	VMULPD  Y0, Y1, Y1        // products, rounded before any add

	MOVLQSX (SI)(AX*4), R8    // rows[k..k+3], sign-extended int32
	MOVLQSX 4(SI)(AX*4), R9
	MOVLQSX 8(SI)(AX*4), R10
	MOVLQSX 12(SI)(AX*4), R11

	// Entry k: dst[r] += p0 (p0 = low lane of Y1).
	VMOVSD (DI)(R8*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(R8*8)

	// Entry k+1: p1 = high half of the low 128 bits.
	VPERMILPD $1, X1, X3
	VMOVSD    (DI)(R9*8), X2
	VADDSD    X3, X2, X2
	VMOVSD    X2, (DI)(R9*8)

	// Entries k+2, k+3: upper 128 bits.
	VEXTRACTF128 $1, Y1, X4
	VMOVSD       (DI)(R10*8), X2
	VADDSD       X4, X2, X2
	VMOVSD       X2, (DI)(R10*8)

	VPERMILPD $1, X4, X5
	VMOVSD    (DI)(R11*8), X2
	VADDSD    X5, X2, X2
	VMOVSD    X2, (DI)(R11*8)

	ADDQ $4, AX
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
