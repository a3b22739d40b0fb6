//go:build !purego

// SSE2 kernels for the fused oblivious word loops and the AVX2 / AVX-512VL
// bodies of Tiers.ScanRun. Every instruction executes unconditionally with
// data-independent control flow: the masks select values, never branches,
// so the access pattern and the instruction trace are identical whether a
// condition is 0 or 1.

#include "go_asm.h"
#include "textflag.h"

// func fusedAccessAsm(mw, mrw uint64, obj, slot *byte, n int)
// Requires n > 0 and n%8 == 0. In place:
//
//	obj'  = obj  ^ (mw  & (obj^slot))
//	slot' = slot ^ (mrw & (obj^slot))
TEXT ·fusedAccessAsm(SB), NOSPLIT, $0-40
	MOVQ mw+0(FP), AX
	MOVQ mrw+8(FP), BX
	MOVQ obj+16(FP), SI
	MOVQ slot+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ AX, X0
	PUNPCKLQDQ X0, X0
	MOVQ BX, X1
	PUNPCKLQDQ X1, X1

loop32:
	CMPQ CX, $32
	JLT  loop16
	MOVOU (SI), X2
	MOVOU (DI), X3
	MOVOU 16(SI), X6
	MOVOU 16(DI), X7
	MOVOU X2, X4
	PXOR  X3, X4
	MOVOU X6, X8
	PXOR  X7, X8
	MOVOU X4, X5
	PAND  X0, X5
	PXOR  X2, X5
	MOVOU X8, X9
	PAND  X0, X9
	PXOR  X6, X9
	PAND  X1, X4
	PXOR  X3, X4
	PAND  X1, X8
	PXOR  X7, X8
	MOVOU X5, (SI)
	MOVOU X4, (DI)
	MOVOU X9, 16(SI)
	MOVOU X8, 16(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  loop32

loop16:
	CMPQ CX, $16
	JLT  loop8
	MOVOU (SI), X2
	MOVOU (DI), X3
	MOVOU X2, X4
	PXOR  X3, X4
	MOVOU X4, X5
	PAND  X0, X5
	PXOR  X2, X5
	PAND  X1, X4
	PXOR  X3, X4
	MOVOU X5, (SI)
	MOVOU X4, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX

loop8:
	CMPQ CX, $8
	JLT  done
	MOVQ (SI), AX
	MOVQ (DI), BX
	MOVQ AX, DX
	XORQ BX, DX
	MOVQ DX, R8
	ANDQ mw+0(FP), R8
	XORQ AX, R8
	ANDQ mrw+8(FP), DX
	XORQ BX, DX
	MOVQ R8, (SI)
	MOVQ DX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JMP  loop8

done:
	RET

// func condCopyAsm(m uint64, dst, src *byte, n int)
// Requires n > 0 and n%8 == 0. In place:
//
//	dst' = dst ^ (m & (dst^src))
//
// src is only read (it may be shared read-only across goroutines).
TEXT ·condCopyAsm(SB), NOSPLIT, $0-32
	MOVQ m+0(FP), AX
	MOVQ dst+8(FP), SI
	MOVQ src+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ AX, X0
	PUNPCKLQDQ X0, X0

copy32:
	CMPQ CX, $32
	JLT  copy16
	MOVOU (SI), X2
	MOVOU (DI), X3
	MOVOU 16(SI), X4
	MOVOU 16(DI), X5
	PXOR  X2, X3
	PAND  X0, X3
	PXOR  X2, X3
	PXOR  X4, X5
	PAND  X0, X5
	PXOR  X4, X5
	MOVOU X3, (SI)
	MOVOU X5, 16(SI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  copy32

copy16:
	CMPQ CX, $16
	JLT  copy8
	MOVOU (SI), X2
	MOVOU (DI), X3
	PXOR  X2, X3
	PAND  X0, X3
	PXOR  X2, X3
	MOVOU X3, (SI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX

copy8:
	CMPQ CX, $8
	JLT  copydone
	MOVQ (SI), BX
	MOVQ (DI), DX
	XORQ BX, DX
	ANDQ AX, DX
	XORQ BX, DX
	MOVQ DX, (SI)
	ADDQ $8, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JMP  copy8

copydone:
	RET

// func swapU64sVec(c *byte, a, b *uint64, n int)
// func swapU32sVec(c *byte, a, b *uint32, n int)
// func swapU8sVec(c *byte, a, b *byte, n int)
// For t < n (n > 0 and a multiple of 4, 8 and 8 lanes respectively), with
// the lane mask m = -c[t] widened to the element:
//
//	d = (a[t]^b[t]) & m;  a[t] ^= d;  b[t] ^= d
#define SWAPLANES(scale) \
	VMOVDQU (SI)(AX*scale), Y1 \
	VMOVDQU (DI)(AX*scale), Y2 \
	VPXOR Y1, Y2, Y3 \
	VPAND Y0, Y3, Y3 \
	VPXOR Y3, Y1, Y1 \
	VPXOR Y3, Y2, Y2 \
	VMOVDQU Y1, (SI)(AX*scale) \
	VMOVDQU Y2, (DI)(AX*scale)

TEXT ·swapU64sVec(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	VPXOR Y7, Y7, Y7
	XORQ AX, AX

u64s:
	VPMOVZXBQ (R8)(AX*1), Y0
	VPSUBQ Y0, Y7, Y0
	SWAPLANES(8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  u64s
	VZEROUPPER
	RET

TEXT ·swapU32sVec(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	VPXOR Y7, Y7, Y7
	XORQ AX, AX

u32s:
	VPMOVZXBD (R8)(AX*1), Y0
	VPSUBD Y0, Y7, Y0
	SWAPLANES(4)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  u32s
	VZEROUPPER
	RET

TEXT ·swapU8sVec(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, R9
	ANDQ $-32, R9
	VPXOR Y7, Y7, Y7
	XORQ AX, AX
	JMP  u8next

u8s:
	VMOVDQU (R8)(AX*1), Y0
	VPSUBB Y0, Y7, Y0
	SWAPLANES(1)
	ADDQ $32, AX

u8next:
	CMPQ AX, R9
	JLT  u8s

	// Eight lanes at a time in a general register: c·0xFF is 0x00 or 0xFF
	// in every byte.
u8w:
	CMPQ AX, CX
	JGE  u8done
	MOVQ (R8)(AX*1), BX
	IMULQ $0xff, BX
	MOVQ (SI)(AX*1), R10
	MOVQ (DI)(AX*1), R11
	MOVQ R10, DX
	XORQ R11, DX
	ANDQ BX, DX
	XORQ DX, R10
	XORQ DX, R11
	MOVQ R10, (SI)(AX*1)
	MOVQ R11, (DI)(AX*1)
	ADDQ $8, AX
	JMP  u8w

u8done:
	VZEROUPPER
	RET

// func swapBlocksVec(c, a, b *byte, n, size int)
// For t < n, with m = -c[t] in every lane and blocks size bytes apart
// (size >= 32), the first size&^31 bytes of block t of a and of b are
// exchanged under m, as in the column passes above.
TEXT ·swapBlocksVec(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ size+32(FP), DX
	MOVQ DX, R9
	ANDQ $-32, R9

blkrow:
	MOVBQZX (R8), BX
	NEGQ BX
	VMOVQ BX, X0
	VPBROADCASTQ X0, Y0
	XORQ AX, AX

blkcol:
	SWAPLANES(1)
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  blkcol
	ADDQ DX, SI
	ADDQ DX, DI
	INCQ R8
	DECQ CX
	JNE  blkrow
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// WARM prefetches every cache line of [p, end); p is consumed.
#define WARM(loop, p, end) \
	ANDQ $-64, p \
loop: \
	PREFETCHT0 (p) \
	ADDQ $64, p \
	CMPQ p, end \
	JLT  loop

// WARMROWS prefetches tier-1 rows [row, row+z) of key, tag, op, aux and
// data, if row (a memory operand) is not negative. BX holds the Tiers.
#define WARMROWS(row, skip, l1, l2, l3, l4, l5) \
	MOVQ row, DX \
	TESTQ DX, DX \
	JLT  skip \
	MOVQ Tiers_T1+Buckets_z(BX), R9 \
	MOVQ Tiers_T1+Buckets_key(BX), SI \
	LEAQ (SI)(DX*8), SI \
	LEAQ (SI)(R9*8), DI \
	WARM(l1, SI, DI) \
	MOVQ Tiers_T1+Buckets_tag(BX), SI \
	ADDQ DX, SI \
	LEAQ (SI)(R9*1), DI \
	WARM(l2, SI, DI) \
	MOVQ Tiers_T1+Buckets_op(BX), SI \
	ADDQ DX, SI \
	LEAQ (SI)(R9*1), DI \
	WARM(l3, SI, DI) \
	MOVQ Tiers_T1+Buckets_aux(BX), SI \
	ADDQ DX, SI \
	LEAQ (SI)(R9*1), DI \
	WARM(l4, SI, DI) \
	MOVQ Tiers_T1+Buckets_blockSize(BX), R8 \
	MOVQ Tiers_T1+Buckets_data(BX), SI \
	IMULQ R8, DX \
	ADDQ DX, SI \
	IMULQ R8, R9 \
	LEAQ (SI)(R9*1), DI \
	WARM(l5, SI, DI) \
skip:

// KEYS is the key pass of one object (identifier id, a memory operand)
// against the first lanes (a memory operand, a multiple of four) slots of
// the bucket at row (a memory operand) of the tier at offset tier in the
// Tiers (BX), four slots per step, into that tier's mask words mw and mrw.
// With Y1 holding 1 and Y2 the write op in every qword lane, for j < lanes
// and r = row+j:
//
//	mrw[j] = (key[r] == id) & (tag[r]&1 == 1)   as all-ones / zero
//	mw[j]  = mrw[j] & (op[r] == write)
//	aux[r] = aux[r] ^ (mrw[j] & (aux[r]^1))     on the low byte
//
// Keys, tags and ops reach compares and ANDs.
#define KEYS(tier, lanes, row, id, mw, mrw, loop, done) \
	MOVQ lanes, CX \
	TESTQ CX, CX \
	JEQ  done \
	MOVQ row, AX \
	MOVQ tier+Buckets_key(BX), SI \
	LEAQ (SI)(AX*8), SI \
	MOVQ tier+Buckets_tag(BX), R10 \
	ADDQ AX, R10 \
	MOVQ tier+Buckets_op(BX), R11 \
	ADDQ AX, R11 \
	MOVQ tier+Buckets_aux(BX), DI \
	ADDQ AX, DI \
	MOVQ tier+mw(BX), R12 \
	MOVQ tier+mrw(BX), R13 \
	VPBROADCASTQ id, Y0 \
	XORQ AX, AX \
loop: \
	VPCMPEQQ (SI)(AX*8), Y0, Y3 \
	VPMOVZXBQ (R10)(AX*1), Y4 \
	VPMOVZXBQ (R11)(AX*1), Y5 \
	VPAND Y1, Y4, Y4 \
	VPCMPEQQ Y1, Y4, Y4 \
	VPCMPEQQ Y2, Y5, Y5 \
	VPAND Y4, Y3, Y3 \
	VPAND Y3, Y5, Y5 \
	VMOVDQU Y3, (R13)(AX*8) \
	VMOVDQU Y5, (R12)(AX*8) \
	VPMOVMSKB Y3, DX \
	MOVL (DI)(AX*1), R8 \
	MOVL R8, R9 \
	XORL $0x01010101, R9 \
	ANDL DX, R9 \
	XORL R8, R9 \
	MOVL R9, (DI)(AX*1) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  loop \
done:

// TIER points a block pass at the bucket at row (a memory operand) of the
// tier at offset tier: DX = its first slot's column at offset R14, R9 = z,
// R12 and R13 = the tier's mask words mw and mrw. R8 holds the block size.
#define TIER(tier, row, mw, mrw) \
	MOVQ row, DX \
	IMULQ R8, DX \
	ADDQ tier+Buckets_data(BX), DX \
	ADDQ R14, DX \
	MOVQ tier+Buckets_z(BX), R9 \
	MOVQ tier+mw(BX), R12 \
	MOVQ tier+mrw(BX), R13

// SELECT is the bitwise select dst' = mask ? src : dst as one VPTERNLOGQ:
// with the destination as operand A, the mask as B and the source as C, the
// truth table of B ? C : A is 0xB8.
#define SELECT(src, mask, dst) VPTERNLOGQ $0xB8, src, mask, dst

// MEET is one slot column (s) meeting one object column (o) under the
// masks mw and mrw, t a scratch copy of the slot:
//
//	s' = mrw ? o : s,  o' = mw ? s : o
#define MEET(o, s, t, mw, mrw) \
	VMOVDQA64 s, t \
	SELECT(o, mrw, s) \
	SELECT(t, mw, o)

// PASS160 streams the R9 slots' 160-byte columns from DX (stride R8, masks
// from R12 and R13) through the object column held in a0–a4.
#define PASS160(loop, a0, a1, a2, a3, a4) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VMOVDQU (DX), Y10 \
	VMOVDQU 32(DX), Y11 \
	VMOVDQU 64(DX), Y12 \
	VMOVDQU 96(DX), Y13 \
	VMOVDQU 128(DX), Y14 \
	MEET(a0, Y10, Y21, Y8, Y9) \
	MEET(a1, Y11, Y22, Y8, Y9) \
	MEET(a2, Y12, Y23, Y8, Y9) \
	MEET(a3, Y13, Y24, Y8, Y9) \
	MEET(a4, Y14, Y25, Y8, Y9) \
	VMOVDQU Y10, (DX) \
	VMOVDQU Y11, 32(DX) \
	VMOVDQU Y12, 64(DX) \
	VMOVDQU Y13, 96(DX) \
	VMOVDQU Y14, 128(DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

// PAIR160 streams the R9 slots' 160-byte columns from DX (stride R8) through
// two object columns: each slot column is loaded once, meets Y0–Y4 (masks
// from R12 and R13), then Y16–Y20 (masks from R10 and R11), and is stored
// once.
#define PAIR160(loop) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VPBROADCASTQ (R10)(AX*8), Y26 \
	VPBROADCASTQ (R11)(AX*8), Y27 \
	VMOVDQU (DX), Y10 \
	VMOVDQU 32(DX), Y11 \
	VMOVDQU 64(DX), Y12 \
	VMOVDQU 96(DX), Y13 \
	VMOVDQU 128(DX), Y14 \
	MEET(Y0, Y10, Y21, Y8, Y9) \
	MEET(Y1, Y11, Y22, Y8, Y9) \
	MEET(Y2, Y12, Y23, Y8, Y9) \
	MEET(Y3, Y13, Y24, Y8, Y9) \
	MEET(Y4, Y14, Y25, Y8, Y9) \
	MEET(Y16, Y10, Y21, Y26, Y27) \
	MEET(Y17, Y11, Y22, Y26, Y27) \
	MEET(Y18, Y12, Y23, Y26, Y27) \
	MEET(Y19, Y13, Y24, Y26, Y27) \
	MEET(Y20, Y14, Y25, Y26, Y27) \
	VMOVDQU Y10, (DX) \
	VMOVDQU Y11, 32(DX) \
	VMOVDQU Y12, 64(DX) \
	VMOVDQU Y13, 96(DX) \
	VMOVDQU Y14, 128(DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

// PASS32 and PAIR32 are PASS160 and PAIR160 on one 32-byte column: the
// object in a (or Y0, then Y16).
#define PASS32(loop, a) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VMOVDQU (DX), Y10 \
	MEET(a, Y10, Y21, Y8, Y9) \
	VMOVDQU Y10, (DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

#define PAIR32(loop) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VPBROADCASTQ (R10)(AX*8), Y26 \
	VPBROADCASTQ (R11)(AX*8), Y27 \
	VMOVDQU (DX), Y10 \
	MEET(Y0, Y10, Y21, Y8, Y9) \
	MEET(Y16, Y10, Y21, Y26, Y27) \
	VMOVDQU Y10, (DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

// NPASS128 is PASS160 for the AVX2 body: 128-byte columns in Y0–Y3, the
// select as d = o^s, o ^= mw&d, s ^= mrw&d.
#define NPASS128(loop) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VPXOR (DX), Y0, Y10 \
	VPXOR 32(DX), Y1, Y11 \
	VPXOR 64(DX), Y2, Y12 \
	VPXOR 96(DX), Y3, Y13 \
	VPAND Y8, Y10, Y4 \
	VPAND Y8, Y11, Y5 \
	VPAND Y8, Y12, Y6 \
	VPAND Y8, Y13, Y7 \
	VPAND Y9, Y10, Y10 \
	VPAND Y9, Y11, Y11 \
	VPAND Y9, Y12, Y12 \
	VPAND Y9, Y13, Y13 \
	VPXOR Y4, Y0, Y0 \
	VPXOR Y5, Y1, Y1 \
	VPXOR Y6, Y2, Y2 \
	VPXOR Y7, Y3, Y3 \
	VPXOR (DX), Y10, Y10 \
	VPXOR 32(DX), Y11, Y11 \
	VPXOR 64(DX), Y12, Y12 \
	VPXOR 96(DX), Y13, Y13 \
	VMOVDQU Y10, (DX) \
	VMOVDQU Y11, 32(DX) \
	VMOVDQU Y12, 64(DX) \
	VMOVDQU Y13, 96(DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

#define NPASS32(loop) \
	XORQ AX, AX \
loop: \
	VPBROADCASTQ (R12)(AX*8), Y8 \
	VPBROADCASTQ (R13)(AX*8), Y9 \
	VPXOR (DX), Y0, Y10 \
	VPAND Y8, Y10, Y4 \
	VPAND Y9, Y10, Y10 \
	VPXOR Y4, Y0, Y0 \
	VPXOR (DX), Y10, Y10 \
	VMOVDQU Y10, (DX) \
	ADDQ R8, DX \
	INCQ AX \
	CMPQ AX, R9 \
	JLT  loop

// NARROWOBJ is the AVX2 body's block pass of one object (its bytes from
// obj, a register; its buckets at row1 in tier 1 and row2 in tier 2, memory
// operands; its mask words mw and mrw in each tier): 128-byte columns, then
// 32-byte ones, each through the tier-1 bucket and then the tier-2 bucket.
// CX holds blockSize&^31.
#define NARROWOBJ(obj, row1, row2, mw, mrw, c128, p1, p2, c32, q1, q2, out) \
	XORQ R14, R14 \
c128: \
	LEAQ 128(R14), AX \
	CMPQ AX, CX \
	JGT  c32 \
	VMOVDQU (obj)(R14*1), Y0 \
	VMOVDQU 32(obj)(R14*1), Y1 \
	VMOVDQU 64(obj)(R14*1), Y2 \
	VMOVDQU 96(obj)(R14*1), Y3 \
	TIER(Tiers_T1, row1, mw, mrw) \
	NPASS128(p1) \
	TIER(Tiers_T2, row2, mw, mrw) \
	NPASS128(p2) \
	VMOVDQU Y0, (obj)(R14*1) \
	VMOVDQU Y1, 32(obj)(R14*1) \
	VMOVDQU Y2, 64(obj)(R14*1) \
	VMOVDQU Y3, 96(obj)(R14*1) \
	ADDQ $128, R14 \
	JMP  c128 \
c32: \
	CMPQ R14, CX \
	JGE  out \
	VMOVDQU (obj)(R14*1), Y0 \
	TIER(Tiers_T1, row1, mw, mrw) \
	NPASS32(q1) \
	TIER(Tiers_T2, row2, mw, mrw) \
	NPASS32(q2) \
	VMOVDQU Y0, (obj)(R14*1) \
	ADDQ $32, R14 \
	JMP  c32 \
out:

// func scanLanes(t *Tiers, ida, idb uint64, r1a, r1b, r2 int, obja, objb *byte, write uint8, wa, wb, lanes1, lanes2 int, wide, pair bool)
//
// The vector bodies' share of one Tiers.run step: object a (identifier ida,
// bytes obja, tier-1 bucket at row r1a, tier-2 bucket at row r2) and, if
// pair, object b (idb, objb, r1b, the same tier-2 bucket). Loop bounds are
// in the bound z's and block size and the arguments only — public shape,
// never row contents.
//
// 1. Prefetch the tier-1 rows from wa and from wb (each if not negative).
// 2. Key passes (KEYS) over the first lanes1 slots of a's tier-1 bucket and
//    the first lanes2 of its tier-2 bucket into the tiers' mw/mrw, and of
//    b's into mwb/mrwb; the masks of the remaining slots are already there.
// 3. Block pass over the first blockSize&^31 bytes of the objects, column-
//    major. Wide (AVX-512VL, 256-bit registers only): a 160-byte column of a
//    is held in Y0–Y4 while a's tier-1 slots stream through it; for a pair,
//    b's column in Y16–Y20 takes b's tier-1 slots, then each tier-2 slot
//    column is loaded once, meets a's column and then b's, and is stored
//    once; for a single, a's column takes the tier-2 slots. Then 32-byte
//    columns the same way. Not wide (AVX2): a's 128-byte, then 32-byte,
//    columns through a's two buckets, then b's through b's (NARROWOBJ).
TEXT ·scanLanes(SB), NOSPLIT, $0-106
	MOVQ t+0(FP), BX
	WARMROWS(wa+72(FP), warmb, wka, wta, woa, waa, wda)
	WARMROWS(wb+80(FP), keys, wkb, wtb, wob, wab, wdb)
	MOVBQZX write+64(FP), AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $63, Y1, Y1
	KEYS(Tiers_T1, lanes1+88(FP), r1a+24(FP), ida+8(FP), Buckets_mw, Buckets_mrw, k1a, k1adone)
	KEYS(Tiers_T2, lanes2+96(FP), r2+40(FP), ida+8(FP), Buckets_mw, Buckets_mrw, k2a, k2adone)
	CMPB pair+105(FP), $0
	JEQ  blocks
	KEYS(Tiers_T1, lanes1+88(FP), r1b+32(FP), idb+16(FP), Buckets_mwb, Buckets_mrwb, k1b, k1bdone)
	KEYS(Tiers_T2, lanes2+96(FP), r2+40(FP), idb+16(FP), Buckets_mwb, Buckets_mrwb, k2b, k2bdone)

blocks:
	MOVQ Tiers_T1+Buckets_blockSize(BX), R8
	MOVQ R8, CX
	ANDQ $-32, CX
	MOVQ obja+48(FP), SI
	MOVQ objb+56(FP), DI
	CMPB wide+104(FP), $0
	JEQ  narrow
	XORQ R14, R14

w160:
	LEAQ 160(R14), AX
	CMPQ AX, CX
	JGT  w32
	VMOVDQU (SI)(R14*1), Y0
	VMOVDQU 32(SI)(R14*1), Y1
	VMOVDQU 64(SI)(R14*1), Y2
	VMOVDQU 96(SI)(R14*1), Y3
	VMOVDQU 128(SI)(R14*1), Y4
	TIER(Tiers_T1, r1a+24(FP), Buckets_mw, Buckets_mrw)
	PASS160(w160t1a, Y0, Y1, Y2, Y3, Y4)
	CMPB pair+105(FP), $0
	JEQ  w160one
	VMOVDQU64 (DI)(R14*1), Y16
	VMOVDQU64 32(DI)(R14*1), Y17
	VMOVDQU64 64(DI)(R14*1), Y18
	VMOVDQU64 96(DI)(R14*1), Y19
	VMOVDQU64 128(DI)(R14*1), Y20
	TIER(Tiers_T1, r1b+32(FP), Buckets_mwb, Buckets_mrwb)
	PASS160(w160t1b, Y16, Y17, Y18, Y19, Y20)
	TIER(Tiers_T2, r2+40(FP), Buckets_mw, Buckets_mrw)
	MOVQ Tiers_T2+Buckets_mwb(BX), R10
	MOVQ Tiers_T2+Buckets_mrwb(BX), R11
	PAIR160(w160t2)
	VMOVDQU64 Y16, (DI)(R14*1)
	VMOVDQU64 Y17, 32(DI)(R14*1)
	VMOVDQU64 Y18, 64(DI)(R14*1)
	VMOVDQU64 Y19, 96(DI)(R14*1)
	VMOVDQU64 Y20, 128(DI)(R14*1)
	JMP  w160put

w160one:
	TIER(Tiers_T2, r2+40(FP), Buckets_mw, Buckets_mrw)
	PASS160(w160t2a, Y0, Y1, Y2, Y3, Y4)

w160put:
	VMOVDQU Y0, (SI)(R14*1)
	VMOVDQU Y1, 32(SI)(R14*1)
	VMOVDQU Y2, 64(SI)(R14*1)
	VMOVDQU Y3, 96(SI)(R14*1)
	VMOVDQU Y4, 128(SI)(R14*1)
	ADDQ $160, R14
	JMP  w160

w32:
	CMPQ R14, CX
	JGE  done
	VMOVDQU (SI)(R14*1), Y0
	TIER(Tiers_T1, r1a+24(FP), Buckets_mw, Buckets_mrw)
	PASS32(w32t1a, Y0)
	CMPB pair+105(FP), $0
	JEQ  w32one
	VMOVDQU64 (DI)(R14*1), Y16
	TIER(Tiers_T1, r1b+32(FP), Buckets_mwb, Buckets_mrwb)
	PASS32(w32t1b, Y16)
	TIER(Tiers_T2, r2+40(FP), Buckets_mw, Buckets_mrw)
	MOVQ Tiers_T2+Buckets_mwb(BX), R10
	MOVQ Tiers_T2+Buckets_mrwb(BX), R11
	PAIR32(w32t2)
	VMOVDQU64 Y16, (DI)(R14*1)
	JMP  w32put

w32one:
	TIER(Tiers_T2, r2+40(FP), Buckets_mw, Buckets_mrw)
	PASS32(w32t2a, Y0)

w32put:
	VMOVDQU Y0, (SI)(R14*1)
	ADDQ $32, R14
	JMP  w32

narrow:
	NARROWOBJ(SI, r1a+24(FP), r2+40(FP), Buckets_mw, Buckets_mrw, na128, na1, na2, na32, na3, na4, naout)
	CMPB pair+105(FP), $0
	JEQ  done
	NARROWOBJ(DI, r1b+32(FP), r2+40(FP), Buckets_mwb, Buckets_mrwb, nb128, nb1, nb2, nb32, nb3, nb4, nbout)

done:
	VZEROUPPER
	RET
