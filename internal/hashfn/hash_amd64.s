#include "textflag.h"

// SSE2 forms of FinishWords, ChildrenPrefixes, ExpandScore and
// FinishScore: four one-at-a-time chains per 128-bit register, one lane
// per candidate. SSE2 is in the amd64 baseline, so there is no feature
// probe. The loops stay on legacy-SSE encodings throughout; mixing them
// with VEX (AVX) ops would pay an SSE/AVX state transition per call.
//
// Each kernel runs four lanes per iteration (ExpandScore and
// FinishScore: eight, in two chains), then finishes the remaining
// elements one at a time through the same vector code, using lane 0
// only, so every length is handled here and the output is bit-identical
// to the scalar WordFinish / Sum+Prefix.

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

// The fused expand-and-score kernel below runs two four-lane chains
// side by side: chain A in X0–X3, chain B in X4–X7. OAAT2 and
// AVALANCHE2 interleave OAAT and AVALANCHE on one vector of each chain,
// so the two dependency chains overlap instruction by instruction.
#define OAAT2(h, b, t, H, B, T) \
	PADDL b, h; \
	PADDL B, H; \
	MOVO  h, t; \
	MOVO  H, T; \
	PSLLL $10, t; \
	PSLLL $10, T; \
	PADDL t, h; \
	PADDL T, H; \
	MOVO  h, t; \
	MOVO  H, T; \
	PSRLL $6, t; \
	PSRLL $6, T; \
	PXOR  t, h; \
	PXOR  T, H

#define AVALANCHE2(h, t, H, T) \
	MOVO  h, t; \
	MOVO  H, T; \
	PSLLL $3, t; \
	PSLLL $3, T; \
	PADDL t, h; \
	PADDL T, H; \
	MOVO  h, t; \
	MOVO  H, T; \
	PSRLL $11, t; \
	PSRLL $11, T; \
	PXOR  t, h; \
	PXOR  T, H; \
	MOVO  h, t; \
	MOVO  H, T; \
	PSLLL $15, t; \
	PSLLL $15, T; \
	PADDL t, h; \
	PADDL T, H

// BYTE2 extracts byte lanes of s and S into b and B: shifted up by l,
// then down by 24 (l = 24, 16, 8 for bytes 0–2; byte 3 needs only the
// right shift). A shift pair needs no mask register.
#define BYTE2(l, s, b, S, B) \
	MOVO  s, b; \
	MOVO  S, B; \
	PSLLL $l, b; \
	PSLLL $l, B; \
	PSRLL $24, b; \
	PSRLL $24, B

// CHILD2 turns message-byte vectors X3 (chain A) and X7 (chain B) into
// child states X0/X4 and their prefixes X2/X6, given the parent's
// absorbed state broadcast in X8 and the hash seed in X9. X1, X3, X5,
// X7 are clobbered.
#define CHILD2 \
	MOVO       X8, X0; \
	MOVO       X8, X4; \
	OAAT2(X0, X3, X1, X4, X7, X5); \
	AVALANCHE2(X0, X1, X4, X5); \
	MOVO       X9, X2; \
	MOVO       X9, X6; \
	BYTE2(24, X0, X3, X4, X7); \
	OAAT2(X2, X3, X1, X6, X7, X5); \
	BYTE2(16, X0, X3, X4, X7); \
	OAAT2(X2, X3, X1, X6, X7, X5); \
	BYTE2(8, X0, X3, X4, X7); \
	OAAT2(X2, X3, X1, X6, X7, X5); \
	MOVO       X0, X3; \
	MOVO       X4, X7; \
	PSRLL      $24, X3; \
	PSRLL      $24, X7; \
	OAAT2(X2, X3, X1, X6, X7, X5)

// FINISH2 turns prefix vectors X2 and X6 into RNG words, given the four
// bytes of t broadcast in X11–X14. X1, X5 are clobbered.
#define FINISH2 \
	OAAT2(X2, X11, X1, X6, X11, X5); \
	OAAT2(X2, X12, X1, X6, X12, X5); \
	OAAT2(X2, X13, X1, X6, X13, X5); \
	OAAT2(X2, X14, X1, X6, X14, X5); \
	AVALANCHE2(X2, X1, X6, X5)

// LANE scores one child whose RNG word and prefix the vector part left
// on the stack at w(SP) and p(SP), and whose key is l(R12): the table
// sum d = dI[w&cmask] + dQ[w>>cshift&cmask] (tables at SI, DI; cmask in
// R13, cshift in CX) is added to the key's cost half, and (key, prefix)
// is stored at survivor index R10 (keys at R8, prefixes at R9). R10
// then advances by the borrow of key − lim (lim in R11): a branchless
// compaction, as in hw.AccumulateCompact. AX, BX are clobbered.
#define LANE(w, p, l) \
	MOVL w(SP), AX; \
	MOVL AX, BX; \
	ANDL R13, AX; \
	SHRL CX, BX; \
	ANDL R13, BX; \
	MOVL (SI)(AX*4), AX; \
	ADDL (DI)(BX*4), AX; \
	SHLQ $32, AX; \
	LEAQ l(R12)(AX*1), AX; \
	MOVQ AX, (R8)(R10*8); \
	MOVL p(SP), BX; \
	MOVL BX, (R9)(R10*4); \
	CMPQ AX, R11; \
	ADCQ $0, R10

// ABSORB is oaatByte on general registers: the low byte of s is
// absorbed into h. t is clobbered.
#define ABSORB(h, s, t) \
	MOVBLZX s, t; \
	ADDL    t, h; \
	MOVL    h, t; \
	SHLL    $10, t; \
	ADDL    t, h; \
	MOVL    h, t; \
	SHRL    $6, t; \
	XORL    t, h

// func expandScore(o OneAtATime, states []uint32, costs []int32, org0 uint32, kb int, t uint32, tau int32, dI, dQ []int32, cmask, cshift uint32, cs []uint32, keys []uint64, pre []uint32) int
//
// Stack: RNG words at 0–31(SP) and prefixes at 32–63(SP), chain A's
// four lanes then chain B's; the parent index at 64(SP) and the fan
// 2^kb at 72(SP).
TEXT ·expandScore(SB), NOSPLIT, $80-216
	MOVL   o_Seed+0(FP), AX
	MOVL   AX, X9
	PSHUFD $0, X9, X9

	// Broadcast each byte of t to all four lanes of X11..X14.
	MOVL   t+72(FP), AX
	MOVL   AX, BX
	ANDL   $0xff, BX
	MOVL   BX, X11
	PSHUFD $0, X11, X11
	MOVL   AX, BX
	SHRL   $8, BX
	ANDL   $0xff, BX
	MOVL   BX, X12
	PSHUFD $0, X12, X12
	MOVL   AX, BX
	SHRL   $16, BX
	ANDL   $0xff, BX
	MOVL   BX, X13
	PSHUFD $0, X13, X13
	SHRL   $24, AX
	MOVL   AX, X14
	PSHUFD $0, X14, X14

	MOVL   $4, AX
	MOVL   AX, X15
	PSHUFD $0, X15, X15

	MOVQ kb+64(FP), CX
	MOVL $1, AX
	SHLQ CX, AX
	MOVQ AX, 72(SP)
	MOVQ $0, 64(SP)

	MOVL tau+76(FP), R11
	SHLQ $32, R11 // lim = tau<<32
	MOVL org0+56(FP), R12
	MOVQ dI_base+80(FP), SI
	MOVQ dQ_base+104(FP), DI
	MOVL cmask+128(FP), R13
	MOVL cshift+132(FP), CX
	MOVQ cs_base+136(FP), R14
	MOVQ keys_base+160(FP), R8
	MOVQ pre_base+184(FP), R9
	XORQ R10, R10

parent:
	MOVQ 64(SP), BX
	CMPQ BX, states_len+16(FP)
	JGE  esdone
	MOVQ costs_base+32(FP), AX
	MOVL (AX)(BX*4), AX
	SHLQ $32, AX
	CMPQ AX, R11
	JCC  esdone // the parent's cost reached tau: so has every later one
	MOVL R12, R12 // origin of the parent's first child
	ORQ  AX, R12

	// X8 = Prefix(state), the parent's absorbed state, in every lane.
	MOVQ   states_base+8(FP), AX
	MOVL   (AX)(BX*4), BX
	MOVL   o_Seed+0(FP), AX
	ABSORB(AX, BX, DX)
	SHRL   $8, BX
	ABSORB(AX, BX, DX)
	SHRL   $8, BX
	ABSORB(AX, BX, DX)
	SHRL   $8, BX
	ABSORB(AX, BX, DX)
	MOVL   AX, X8
	PSHUFD $0, X8, X8
	MOVOU  lanes<>(SB), X10 // message values m..m+3
	MOVQ   72(SP), DX       // children left

es8:
	CMPQ  DX, $8
	JLT   es1
	MOVO  X10, X3
	PADDL X15, X10
	MOVO  X10, X7
	PADDL X15, X10
	CHILD2
	MOVOU X0, (R14)
	MOVOU X4, 16(R14)
	MOVOU X2, 32(SP)
	MOVOU X6, 48(SP)
	FINISH2
	MOVOU X2, 0(SP)
	MOVOU X6, 16(SP)
	LANE(0, 32, 0)
	LANE(4, 36, 1)
	LANE(8, 40, 2)
	LANE(12, 44, 3)
	LANE(16, 48, 4)
	LANE(20, 52, 5)
	LANE(24, 56, 6)
	LANE(28, 60, 7)
	ADDQ  $8, R12
	ADDQ  $32, R14
	SUBQ  $8, DX
	JMP   es8

	// The 0–7 remaining children go one at a time through lane 0 of
	// chain A.
es1:
	TESTQ DX, DX
	JEQ   esnext
	MOVQ  72(SP), AX
	SUBQ  DX, AX
	MOVL  AX, X3 // message value m
	MOVO  X8, X0
	OAAT(X0, X3, X1)
	AVALANCHE(X0, X1)
	MOVO  X9, X2
	MOVO  X0, X3
	PSLLL $24, X3
	PSRLL $24, X3
	OAAT(X2, X3, X1)
	MOVO  X0, X3
	PSLLL $16, X3
	PSRLL $24, X3
	OAAT(X2, X3, X1)
	MOVO  X0, X3
	PSLLL $8, X3
	PSRLL $24, X3
	OAAT(X2, X3, X1)
	MOVO  X0, X3
	PSRLL $24, X3
	OAAT(X2, X3, X1)
	MOVL  X0, (R14)
	MOVL  X2, 32(SP)
	OAAT(X2, X11, X1)
	OAAT(X2, X12, X1)
	OAAT(X2, X13, X1)
	OAAT(X2, X14, X1)
	AVALANCHE(X2, X1)
	MOVL  X2, 0(SP)
	LANE(0, 32, 0)
	INCQ  R12
	ADDQ  $4, R14
	DECQ  DX
	JMP   es1

esnext:
	INCQ 64(SP)
	JMP  parent

esdone:
	MOVQ R10, ret+208(FP)
	RET

// LANEK is LANE for a candidate already in the key pool: its key is
// keys[R12+l] (keys at R8, R12 the read index), and the survivor is
// written back in place at R10, which never passes the read index.
#define LANEK(w, p, l) \
	MOVL w(SP), AX; \
	MOVL AX, BX; \
	ANDL R13, AX; \
	SHRL CX, BX; \
	ANDL R13, BX; \
	MOVL (SI)(AX*4), AX; \
	ADDL (DI)(BX*4), AX; \
	SHLQ $32, AX; \
	ADDQ (l*8)(R8)(R12*8), AX; \
	MOVQ AX, (R8)(R10*8); \
	MOVL p(SP), BX; \
	MOVL BX, (R9)(R10*4); \
	CMPQ AX, R11; \
	ADCQ $0, R10

// func finishScore(tau int32, keys []uint64, pre []uint32, t uint32, dI, dQ []int32, cmask, cshift uint32) int
//
// Stack: RNG words at 0–31(SP) and prefixes at 32–63(SP), chain A's
// four lanes then chain B's, as in expandScore. The prefixes are read
// from pre before any lane of the iteration writes back.
TEXT ·finishScore(SB), NOSPLIT, $64-128
	MOVL   t+56(FP), AX
	MOVL   AX, BX
	ANDL   $0xff, BX
	MOVL   BX, X11
	PSHUFD $0, X11, X11
	MOVL   AX, BX
	SHRL   $8, BX
	ANDL   $0xff, BX
	MOVL   BX, X12
	PSHUFD $0, X12, X12
	MOVL   AX, BX
	SHRL   $16, BX
	ANDL   $0xff, BX
	MOVL   BX, X13
	PSHUFD $0, X13, X13
	SHRL   $24, AX
	MOVL   AX, X14
	PSHUFD $0, X14, X14

	MOVL tau+0(FP), R11
	SHLQ $32, R11
	MOVQ keys_base+8(FP), R8
	MOVQ pre_base+32(FP), R9
	MOVQ pre_len+40(FP), DX
	MOVQ dI_base+64(FP), SI
	MOVQ dQ_base+88(FP), DI
	MOVL cmask+112(FP), R13
	MOVL cshift+116(FP), CX
	XORQ R10, R10
	XORQ R12, R12
	MOVQ DX, R14
	ANDQ $-8, R14

fs8:
	CMPQ  R12, R14
	JGE   fs1
	MOVOU (R9)(R12*4), X2
	MOVOU 16(R9)(R12*4), X6
	MOVOU X2, 32(SP)
	MOVOU X6, 48(SP)
	FINISH2
	MOVOU X2, 0(SP)
	MOVOU X6, 16(SP)
	LANEK(0, 32, 0)
	LANEK(4, 36, 1)
	LANEK(8, 40, 2)
	LANEK(12, 44, 3)
	LANEK(16, 48, 4)
	LANEK(20, 52, 5)
	LANEK(24, 56, 6)
	LANEK(28, 60, 7)
	ADDQ  $8, R12
	JMP   fs8

	// The 0–7 remaining candidates go one at a time through lane 0 of
	// chain A.
fs1:
	CMPQ R12, DX
	JGE  fsdone
	MOVL (R9)(R12*4), X2
	MOVL X2, 32(SP)
	OAAT(X2, X11, X1)
	OAAT(X2, X12, X1)
	OAAT(X2, X13, X1)
	OAAT(X2, X14, X1)
	AVALANCHE(X2, X1)
	MOVL X2, 0(SP)
	LANEK(0, 32, 0)
	INCQ R12
	JMP  fs1

fsdone:
	MOVQ R10, ret+120(FP)
	RET

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
GLOBL lanes<>(SB), RODATA|NOPTR, $16
