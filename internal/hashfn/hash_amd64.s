#include "textflag.h"

// SSE2 forms of FinishWords and ChildrenPrefixes: four one-at-a-time
// chains per 128-bit register, one lane per candidate. SSE2 is in the
// amd64 baseline, so there is no feature probe. The loops stay on
// legacy-SSE encodings throughout; mixing them with VEX (AVX) ops would
// pay an SSE/AVX state transition per call.
//
// Each kernel runs four lanes per iteration, then finishes the 0–3
// remaining elements one at a time through the same vector code, using
// lane 0 only, so every length is handled here and the output is
// bit-identical to the scalar WordFinish / Sum+Prefix.

// OAAT absorbs byte vector b into hash vector h (oaatByte per lane):
// h += b; h += h<<10; h ^= h>>6. t is clobbered.
#define OAAT(h, b, t) \
	PADDL b, h; \
	MOVO  h, t; \
	PSLLL $10, t; \
	PADDL t, h; \
	MOVO  h, t; \
	PSRLL $6, t; \
	PXOR  t, h

// AVALANCHE is the one-at-a-time finalization per lane:
// h += h<<3; h ^= h>>11; h += h<<15. t is clobbered.
#define AVALANCHE(h, t) \
	MOVO  h, t; \
	PSLLL $3, t; \
	PADDL t, h; \
	MOVO  h, t; \
	PSRLL $11, t; \
	PXOR  t, h; \
	MOVO  h, t; \
	PSLLL $15, t; \
	PADDL t, h

// FINISH turns prefix vector X0 into RNG words, given the four bytes of
// t broadcast in X8–X11. X1 is clobbered.
#define FINISH \
	OAAT(X0, X8, X1); \
	OAAT(X0, X9, X1); \
	OAAT(X0, X10, X1); \
	OAAT(X0, X11, X1); \
	AVALANCHE(X0, X1)

// CHILD turns message-byte vector X3 into child states X0 and their
// prefixes X2, given the parent's absorbed state broadcast in X8, the
// hash seed in X9 and the byte mask in X12. X1, X3 are clobbered.
#define CHILD \
	MOVO  X8, X0; \
	OAAT(X0, X3, X1); \
	AVALANCHE(X0, X1); \
	MOVO  X9, X2; \
	MOVO  X0, X3; \
	PAND  X12, X3; \
	OAAT(X2, X3, X1); \
	MOVO  X0, X3; \
	PSRLL $8, X3; \
	PAND  X12, X3; \
	OAAT(X2, X3, X1); \
	MOVO  X0, X3; \
	PSRLL $16, X3; \
	PAND  X12, X3; \
	OAAT(X2, X3, X1); \
	MOVO  X0, X3; \
	PSRLL $24, X3; \
	OAAT(X2, X3, X1)

// func finishWords(prefixes []uint32, t uint32, out []uint32)
TEXT ·finishWords(SB), NOSPLIT, $0-56
	MOVQ prefixes_base+0(FP), SI
	MOVQ prefixes_len+8(FP), DX
	MOVL t+24(FP), AX
	MOVQ out_base+32(FP), DI

	// Broadcast each byte of t to all four lanes of X8..X11.
	MOVL      AX, BX
	ANDL      $0xff, BX
	MOVL      BX, X8
	PSHUFD    $0, X8, X8
	MOVL      AX, BX
	SHRL      $8, BX
	ANDL      $0xff, BX
	MOVL      BX, X9
	PSHUFD    $0, X9, X9
	MOVL      AX, BX
	SHRL      $16, BX
	ANDL      $0xff, BX
	MOVL      BX, X10
	PSHUFD    $0, X10, X10
	SHRL      $24, AX
	MOVL      AX, X11
	PSHUFD    $0, X11, X11

	XORQ CX, CX
	MOVQ DX, R8
	ANDQ $-4, R8

fw4:
	CMPQ   CX, R8
	JGE    fw1
	MOVOU  (SI)(CX*4), X0
	FINISH
	MOVOU  X0, (DI)(CX*4)
	ADDQ   $4, CX
	JMP    fw4

fw1:
	CMPQ CX, DX
	JGE  fwdone
	MOVL (SI)(CX*4), X0
	FINISH
	MOVL X0, (DI)(CX*4)
	INCQ CX
	JMP  fw1

fwdone:
	RET

// func childrenPrefixes(h0, seed uint32, cs, pre []uint32)
TEXT ·childrenPrefixes(SB), NOSPLIT, $0-56
	MOVL h0+0(FP), AX
	MOVL seed+4(FP), BX
	MOVQ cs_base+8(FP), DI
	MOVQ cs_len+16(FP), DX
	MOVQ pre_base+32(FP), R9

	MOVL   AX, X8
	PSHUFD $0, X8, X8
	MOVL   BX, X9
	PSHUFD $0, X9, X9
	MOVL   $0xff, AX
	MOVL   AX, X12
	PSHUFD $0, X12, X12
	MOVOU  lanes<>(SB), X10 // message values m..m+3
	MOVL   $4, AX
	MOVL   AX, X11
	PSHUFD $0, X11, X11

	XORQ CX, CX
	MOVQ DX, R8
	ANDQ $-4, R8

cp4:
	CMPQ  CX, R8
	JGE   cp1
	MOVO  X10, X3
	PAND  X12, X3 // byte(m)
	CHILD
	MOVOU X0, (DI)(CX*4)
	MOVOU X2, (R9)(CX*4)
	PADDL X11, X10
	ADDQ  $4, CX
	JMP   cp4

cp1:
	CMPQ CX, DX
	JGE  cpdone
	MOVL CX, AX
	ANDL $0xff, AX
	MOVL AX, X3
	CHILD
	MOVL X0, (DI)(CX*4)
	MOVL X2, (R9)(CX*4)
	INCQ CX
	JMP  cp1

cpdone:
	RET

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
GLOBL lanes<>(SB), RODATA|NOPTR, $16
