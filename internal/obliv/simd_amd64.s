//go:build !purego

// SSE2 kernels for the fused oblivious word loops and the AVX2 / AVX-512VL
// bodies of Buckets.Scan. Every instruction executes unconditionally with
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

// SELECT is the bitwise select dst' = mask ? src : dst as one VPTERNLOGQ:
// with the destination as operand A, the mask as B and the source as C, the
// truth table of B ? C : A is 0xB8.
#define SELECT(src, mask, dst) VPTERNLOGQ $0xB8, src, mask, dst

// func scanBucketLanes(b *Buckets, lo, lanes int, id uint64, obj *byte, write uint8, warm int, wide bool)
//
// Three sections, each with loop bounds in b.z, b.blockSize and the
// arguments lanes, warm and wide only — public shape, never row contents.
//
// 1. If warm >= 0, PREFETCHT0 rows [warm, warm+z) of key, tag, op, aux and
//    data.
// 2. Key pass, four slots per step, for j in [0, lanes) (lanes%4 == 0) and
//    row = lo+j:
//
//	mrw[j]   = (key[row] == id) & (tag[row]&1 == 1)   as all-ones / zero
//	mw[j]    = mrw[j] & (op[row] == write)
//	aux[row] = aux[row] ^ (mrw[j] & (aux[row]^1))     on the low byte
//
//    Keys, tags and ops reach compares and ANDs.
// 3. Block pass over the first blockSize&^31 bytes of obj and of each of
//    the z slots from row lo, column-major: a 160-byte (wide) or 128-byte
//    column of the object, then 32-byte ones, is held in registers while
//    every slot's column streams through it in slot order,
//
//	slot_j' = mrw[j] ? obj    : slot_j
//	obj'    = mw[j]  ? slot_j : obj
//
//    as two VPTERNLOGQ per register against a renamed copy of slot_j (wide;
//    the only use of registers 16 and up, so no 512-bit state is touched) or
//    as d = obj^slot_j, obj ^= mw[j]&d, slot_j ^= mrw[j]&d (not wide), and is
//    stored once.
TEXT ·scanBucketLanes(SB), NOSPLIT, $0-57
	MOVQ b+0(FP), BX
	MOVQ Buckets_z(BX), R9
	MOVQ Buckets_blockSize(BX), R8
	MOVQ Buckets_mw(BX), R12
	MOVQ Buckets_mrw(BX), R13

	MOVQ warm+48(FP), DX
	TESTQ DX, DX
	JLT  keys
	MOVQ Buckets_key(BX), SI
	LEAQ (SI)(DX*8), SI
	LEAQ (SI)(R9*8), DI
	WARM(warmkey, SI, DI)
	MOVQ Buckets_tag(BX), SI
	ADDQ DX, SI
	LEAQ (SI)(R9*1), DI
	WARM(warmtag, SI, DI)
	MOVQ Buckets_op(BX), SI
	ADDQ DX, SI
	LEAQ (SI)(R9*1), DI
	WARM(warmop, SI, DI)
	MOVQ Buckets_aux(BX), SI
	ADDQ DX, SI
	LEAQ (SI)(R9*1), DI
	WARM(warmaux, SI, DI)
	MOVQ Buckets_data(BX), SI
	IMULQ R8, DX
	ADDQ DX, SI
	MOVQ R9, DI
	IMULQ R8, DI
	ADDQ SI, DI
	WARM(warmdata, SI, DI)

keys:
	MOVQ lanes+16(FP), CX
	TESTQ CX, CX
	JEQ  blocks
	MOVQ lo+8(FP), AX
	MOVQ Buckets_key(BX), SI
	LEAQ (SI)(AX*8), SI
	MOVQ Buckets_tag(BX), R10
	ADDQ AX, R10
	MOVQ Buckets_op(BX), R11
	ADDQ AX, R11
	MOVQ Buckets_aux(BX), DI
	ADDQ AX, DI
	MOVBQZX write+40(FP), AX
	VPBROADCASTQ id+24(FP), Y0
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $63, Y1, Y1
	XORQ AX, AX

masks4:
	VPCMPEQQ (SI)(AX*8), Y0, Y3
	VPMOVZXBQ (R10)(AX*1), Y4
	VPMOVZXBQ (R11)(AX*1), Y5
	VPAND Y1, Y4, Y4
	VPCMPEQQ Y1, Y4, Y4
	VPCMPEQQ Y2, Y5, Y5
	VPAND Y4, Y3, Y3
	VPAND Y3, Y5, Y5
	VMOVDQU Y3, (R13)(AX*8)
	VMOVDQU Y5, (R12)(AX*8)

	// One byte per qword of mrw: byte j of DX is 0xFF or 0x00.
	VPMOVMSKB Y3, DX
	MOVL (DI)(AX*1), R8
	MOVL R8, R9
	XORL $0x01010101, R9
	ANDL DX, R9
	XORL R8, R9
	MOVL R9, (DI)(AX*1)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  masks4

	MOVQ Buckets_z(BX), R9
	MOVQ Buckets_blockSize(BX), R8

blocks:
	MOVQ lo+8(FP), AX
	IMULQ R8, AX
	MOVQ Buckets_data(BX), DI
	ADDQ AX, DI
	MOVQ obj+32(FP), SI
	MOVQ R8, CX
	ANDQ $-32, CX
	CMPB wide+56(FP), $0
	JEQ  col128

col160:
	CMPQ CX, $160
	JLT  col32w
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	MOVQ DI, DX
	XORQ AX, AX

slot160:
	VPBROADCASTQ (R12)(AX*8), Y8
	VPBROADCASTQ (R13)(AX*8), Y9
	VMOVDQU (DX), Y10
	VMOVDQU 32(DX), Y11
	VMOVDQU 64(DX), Y12
	VMOVDQU 96(DX), Y13
	VMOVDQU 128(DX), Y14
	VMOVDQA64 Y10, Y16
	VMOVDQA64 Y11, Y17
	VMOVDQA64 Y12, Y18
	VMOVDQA64 Y13, Y19
	VMOVDQA64 Y14, Y20
	SELECT(Y0, Y9, Y10)
	SELECT(Y1, Y9, Y11)
	SELECT(Y2, Y9, Y12)
	SELECT(Y3, Y9, Y13)
	SELECT(Y4, Y9, Y14)
	SELECT(Y16, Y8, Y0)
	SELECT(Y17, Y8, Y1)
	SELECT(Y18, Y8, Y2)
	SELECT(Y19, Y8, Y3)
	SELECT(Y20, Y8, Y4)
	VMOVDQU Y10, (DX)
	VMOVDQU Y11, 32(DX)
	VMOVDQU Y12, 64(DX)
	VMOVDQU Y13, 96(DX)
	VMOVDQU Y14, 128(DX)
	ADDQ R8, DX
	INCQ AX
	CMPQ AX, R9
	JLT  slot160

	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VMOVDQU Y4, 128(SI)
	ADDQ $160, SI
	ADDQ $160, DI
	SUBQ $160, CX
	JMP  col160

col32w:
	CMPQ CX, $32
	JLT  done
	VMOVDQU (SI), Y0
	MOVQ DI, DX
	XORQ AX, AX

slot32w:
	VPBROADCASTQ (R12)(AX*8), Y8
	VPBROADCASTQ (R13)(AX*8), Y9
	VMOVDQU (DX), Y10
	VMOVDQA64 Y10, Y16
	SELECT(Y0, Y9, Y10)
	SELECT(Y16, Y8, Y0)
	VMOVDQU Y10, (DX)
	ADDQ R8, DX
	INCQ AX
	CMPQ AX, R9
	JLT  slot32w

	VMOVDQU Y0, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  col32w

col128:
	CMPQ CX, $128
	JLT  col32
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	MOVQ DI, DX
	XORQ AX, AX

slot128:
	VPBROADCASTQ (R12)(AX*8), Y8
	VPBROADCASTQ (R13)(AX*8), Y9
	VPXOR (DX), Y0, Y10
	VPXOR 32(DX), Y1, Y11
	VPXOR 64(DX), Y2, Y12
	VPXOR 96(DX), Y3, Y13
	VPAND Y8, Y10, Y4
	VPAND Y8, Y11, Y5
	VPAND Y8, Y12, Y6
	VPAND Y8, Y13, Y7
	VPAND Y9, Y10, Y10
	VPAND Y9, Y11, Y11
	VPAND Y9, Y12, Y12
	VPAND Y9, Y13, Y13
	VPXOR Y4, Y0, Y0
	VPXOR Y5, Y1, Y1
	VPXOR Y6, Y2, Y2
	VPXOR Y7, Y3, Y3
	VPXOR (DX), Y10, Y10
	VPXOR 32(DX), Y11, Y11
	VPXOR 64(DX), Y12, Y12
	VPXOR 96(DX), Y13, Y13
	VMOVDQU Y10, (DX)
	VMOVDQU Y11, 32(DX)
	VMOVDQU Y12, 64(DX)
	VMOVDQU Y13, 96(DX)
	ADDQ R8, DX
	INCQ AX
	CMPQ AX, R9
	JLT  slot128

	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  col128

col32:
	CMPQ CX, $32
	JLT  done
	VMOVDQU (SI), Y0
	MOVQ DI, DX
	XORQ AX, AX

slot32:
	VPBROADCASTQ (R12)(AX*8), Y8
	VPBROADCASTQ (R13)(AX*8), Y9
	VPXOR (DX), Y0, Y10
	VPAND Y8, Y10, Y4
	VPAND Y9, Y10, Y10
	VPXOR Y4, Y0, Y0
	VPXOR (DX), Y10, Y10
	VMOVDQU Y10, (DX)
	ADDQ R8, DX
	INCQ AX
	CMPQ AX, R9
	JLT  slot32

	VMOVDQU Y0, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  col32

done:
	VZEROUPPER
	RET
