//go:build amd64 && !purego

// SipHash-2-4 of 8-byte messages in eight 64-bit lanes: lanes 0–3 in
// Y0–Y3 (v0…v3), lanes 4–7 in Y4–Y7. Straight-line code: every lane takes
// every instruction whatever its identifier holds.

#include "textflag.h"

// ROTW rotates each qword of r left by n bits with one VPROLQ (AVX-512VL on
// a 256-bit register); ROTN with two shifts and an OR through t (AVX2).
#define ROTW(n, r, t) VPROLQ $n, r, r
#define ROTN(n, r, t) \
	VPSLLQ $n, r, t \
	VPSRLQ $(64-n), r, r \
	VPOR   t, r, r

// ROUNDW and ROUNDN are one SipRound on the lanes (v0, v1, v2, v3), the
// rotations by 32 as a dword shuffle.
#define ROUNDW(v0, v1, v2, v3, t) \
	VPADDQ v1, v0, v0 \
	ROTW(13, v1, t) \
	VPXOR  v0, v1, v1 \
	VPSHUFD $0xb1, v0, v0 \
	VPADDQ v3, v2, v2 \
	ROTW(16, v3, t) \
	VPXOR  v2, v3, v3 \
	VPADDQ v3, v0, v0 \
	ROTW(21, v3, t) \
	VPXOR  v0, v3, v3 \
	VPADDQ v1, v2, v2 \
	ROTW(17, v1, t) \
	VPXOR  v2, v1, v1 \
	VPSHUFD $0xb1, v2, v2

#define ROUNDN(v0, v1, v2, v3, t) \
	VPADDQ v1, v0, v0 \
	ROTN(13, v1, t) \
	VPXOR  v0, v1, v1 \
	VPSHUFD $0xb1, v0, v0 \
	VPADDQ v3, v2, v2 \
	ROTN(16, v3, t) \
	VPXOR  v2, v3, v3 \
	VPADDQ v3, v0, v0 \
	ROTN(21, v3, t) \
	VPXOR  v0, v3, v3 \
	VPADDQ v1, v2, v2 \
	ROTN(17, v1, t) \
	VPXOR  v2, v1, v1 \
	VPSHUFD $0xb1, v2, v2

// ROUNDS2 runs one SipRound on both lane groups.
#define ROUNDS2(R) \
	R(Y0, Y1, Y2, Y3, Y8) \
	R(Y4, Y5, Y6, Y7, Y9)

// SIP8 hashes the eight identifiers at (SI)(AX*8) into Y0 (lanes 0–3) and
// Y4 (lanes 4–7). DI points at the initial state; Y14 holds 8<<56 and Y15
// 0xff in every lane.
#define SIP8(R) \
	VPBROADCASTQ 0(DI), Y0 \
	VPBROADCASTQ 8(DI), Y1 \
	VPBROADCASTQ 16(DI), Y2 \
	VPBROADCASTQ 24(DI), Y3 \
	VMOVDQA Y0, Y4 \
	VMOVDQA Y1, Y5 \
	VMOVDQA Y2, Y6 \
	VMOVDQA Y3, Y7 \
	VMOVDQU (SI)(AX*8), Y10 \
	VMOVDQU 32(SI)(AX*8), Y11 \
	VPXOR  Y10, Y3, Y3 \
	VPXOR  Y11, Y7, Y7 \
	ROUNDS2(R) \
	ROUNDS2(R) \
	VPXOR  Y10, Y0, Y0 \
	VPXOR  Y11, Y4, Y4 \
	VPXOR  Y14, Y3, Y3 \
	VPXOR  Y14, Y7, Y7 \
	ROUNDS2(R) \
	ROUNDS2(R) \
	VPXOR  Y14, Y0, Y0 \
	VPXOR  Y14, Y4, Y4 \
	VPXOR  Y15, Y2, Y2 \
	VPXOR  Y15, Y6, Y6 \
	ROUNDS2(R) \
	ROUNDS2(R) \
	ROUNDS2(R) \
	ROUNDS2(R) \
	VPXOR  Y1, Y0, Y0 \
	VPXOR  Y3, Y2, Y2 \
	VPXOR  Y2, Y0, Y0 \
	VPXOR  Y5, Y4, Y4 \
	VPXOR  Y7, Y6, Y6 \
	VPXOR  Y6, Y4, Y4

// REDUCE stores the eight buckets ((h>>32)·n1)>>32 to (R8)(AX*4) and
// ((h mod 2³²)·n2)>>32 to (R9)(AX*4) from the hashes in Y0 and Y4, with n1
// in Y12 and n2 in Y13: VPMULUDQ multiplies the low dwords of each qword.
#define REDUCE \
	VPSRLQ $32, Y0, Y1 \
	VPSRLQ $32, Y4, Y5 \
	VPMULUDQ Y12, Y1, Y1 \
	VPMULUDQ Y12, Y5, Y5 \
	VPMULUDQ Y13, Y0, Y0 \
	VPMULUDQ Y13, Y4, Y4 \
	VSHUFPS $0xdd, Y5, Y1, Y1 \
	VSHUFPS $0xdd, Y4, Y0, Y0 \
	VPERMQ $0xd8, Y1, Y1 \
	VPERMQ $0xd8, Y0, Y0 \
	VMOVDQU Y1, (R8)(AX*4) \
	VMOVDQU Y0, (R9)(AX*4)

// func sipBuckets8(v *[4]uint64, ids *uint64, n int, n1, n2 uint64, b1, b2 *uint32, wide bool)
TEXT ·sipBuckets8(SB), NOSPLIT, $0-57
	MOVQ v+0(FP), DI
	MOVQ ids+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ n1+24(FP), Y12
	VPBROADCASTQ n2+32(FP), Y13
	MOVQ b1+40(FP), R8
	MOVQ b2+48(FP), R9
	MOVQ $0x0800000000000000, DX
	VMOVQ DX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0xff, DX
	VMOVQ DX, X15
	VPBROADCASTQ X15, Y15
	XORQ AX, AX
	CMPB wide+56(FP), $0
	JEQ  narrow

wide:
	SIP8(ROUNDW)
	REDUCE
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  wide
	VZEROUPPER
	RET

narrow:
	SIP8(ROUNDN)
	REDUCE
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  narrow
	VZEROUPPER
	RET
