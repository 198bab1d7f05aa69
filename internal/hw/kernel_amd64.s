#include "textflag.h"

// SSE2 form of BuildDistTables: two table entries per instruction, one
// float64 lane per constellation point. SSE2 is in the amd64 baseline,
// so there is no feature probe, and the loop stays on legacy-SSE
// encodings (no VEX), as in internal/hashfn.
//
// Per lane it computes Quantize((y−x)²) without a branch:
// s = d²·scale + 0.5, then MINPD against the cap and a truncating
// convert. MINPD returns its source operand (the cap) unless the
// destination compares below it, so a NaN s saturates to the cap just
// as Quantize's !(s < cap) does. s is never negative (d² ≥ 0 and
// scale > 0), so Quantize's clamp at 0 has no lane to act on.

// QUANT turns x lanes X2 into quantized int32 lanes in the low half of
// X3, given y broadcast in y. Clobbers X3.
#define QUANT(y) \
	MOVAPD   y, X3; \
	SUBPD    X2, X3; \
	MULPD    X3, X3; \
	MULPD    X4, X3; \
	ADDPD    X5, X3; \
	MINPD    X6, X3; \
	CVTTPD2PL X3, X3

// func buildDistTables(q Quantizer, yI, yQ float64, x []float64, dI, dQ []int32)
TEXT ·buildDistTables(SB), NOSPLIT, $0-104
	MOVSD    q_scale+0(FP), X4
	UNPCKLPD X4, X4
	MOVSD    $0.5, X5
	UNPCKLPD X5, X5
	CVTSL2SD q_cap+8(FP), X6
	UNPCKLPD X6, X6
	MOVSD    yI+16(FP), X0
	UNPCKLPD X0, X0
	MOVSD    yQ+24(FP), X1
	UNPCKLPD X1, X1
	MOVQ     x_base+32(FP), SI
	MOVQ     x_len+40(FP), DX
	MOVQ     dI_base+56(FP), DI
	MOVQ     dQ_base+80(FP), R9

	XORQ CX, CX
	MOVQ DX, R8
	ANDQ $-2, R8

bd2:
	CMPQ   CX, R8
	JGE    bd1
	MOVUPD (SI)(CX*8), X2
	QUANT(X0)
	MOVQ   X3, (DI)(CX*4)
	QUANT(X1)
	MOVQ   X3, (R9)(CX*4)
	ADDQ   $2, CX
	JMP    bd2

bd1:
	// An odd length leaves one entry: the same code on lane 0 (MOVSD
	// clears lane 1, which is computed and discarded).
	CMPQ CX, DX
	JGE  bddone
	MOVSD (SI)(CX*8), X2
	QUANT(X0)
	MOVL  X3, (DI)(CX*4)
	QUANT(X1)
	MOVL  X3, (R9)(CX*4)

bddone:
	RET
