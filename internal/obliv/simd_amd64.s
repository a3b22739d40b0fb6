// SSE2 kernels for the fused oblivious word loops and the AVX2 body of
// FusedBucket. Every instruction executes unconditionally with
// data-independent control flow: the masks select values, never branches,
// so the access pattern and the instruction trace are identical whether a
// condition is 0 or 1.

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

// func bucketMasksAVX2(id uint64, key *uint64, tag, op, aux *uint8, write uint8, n int, mw, mrw *uint64)
// Requires n > 0 and n%4 == 0. Four slots per step, for j in [0, n):
//
//	mrw[j] = (key[j] == id) & (tag[j]&1 == 1)   as all-ones / zero
//	mw[j]  = mrw[j] & (op[j] == write)
//	aux[j] = aux[j] ^ (mrw[j] & (aux[j]^1))     on the low byte
//
// The loop bound is n only; keys, tags and ops reach compares and ANDs.
TEXT ·bucketMasksAVX2(SB), NOSPLIT, $0-72
	MOVQ key+8(FP), SI
	MOVQ tag+16(FP), R8
	MOVQ op+24(FP), R9
	MOVQ aux+32(FP), DI
	MOVBQZX write+40(FP), AX
	MOVQ n+48(FP), CX
	MOVQ mw+56(FP), R10
	MOVQ mrw+64(FP), R11
	VPBROADCASTQ id+0(FP), Y0
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $63, Y1, Y1
	XORQ AX, AX

masks4:
	VPCMPEQQ (SI)(AX*8), Y0, Y3
	VPMOVZXBQ (R8)(AX*1), Y4
	VPMOVZXBQ (R9)(AX*1), Y5
	VPAND Y1, Y4, Y4
	VPCMPEQQ Y1, Y4, Y4
	VPCMPEQQ Y2, Y5, Y5
	VPAND Y4, Y3, Y3
	VPAND Y3, Y5, Y5
	VMOVDQU Y3, (R11)(AX*8)
	VMOVDQU Y5, (R10)(AX*8)

	// One byte per qword of mrw: byte j of DX is 0xFF or 0x00.
	VPMOVMSKB Y3, DX
	MOVL (DI)(AX*1), BX
	MOVL BX, R12
	XORL $0x01010101, R12
	ANDL DX, R12
	XORL BX, R12
	MOVL R12, (DI)(AX*1)

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  masks4

	VZEROUPPER
	RET

// func fusedBucketAVX2(obj, slots *byte, n, blockSize, z int, mw, mrw *uint64)
// Requires n > 0, n%32 == 0, n <= blockSize and z > 0. Column-major over the
// first n bytes of the object and of each of the z slots (slot j starts at
// slots + j*blockSize): a 128-byte (then 32-byte) column of the object is
// held in registers while every slot's column streams through it in slot
// order,
//
//	d      = obj ^ slot_j
//	obj   ^= mw[j]  & d
//	slot_j ^= mrw[j] & d
//
// and is stored once. The loop bounds are n, blockSize and z only.
TEXT ·fusedBucketAVX2(SB), NOSPLIT, $0-56
	MOVQ obj+0(FP), SI
	MOVQ slots+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ blockSize+24(FP), R8
	MOVQ z+32(FP), R9
	MOVQ mw+40(FP), R10
	MOVQ mrw+48(FP), R11

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
	VPBROADCASTQ (R10)(AX*8), Y8
	VPBROADCASTQ (R11)(AX*8), Y9
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
	JLT  bucketdone
	VMOVDQU (SI), Y0
	MOVQ DI, DX
	XORQ AX, AX

slot32:
	VPBROADCASTQ (R10)(AX*8), Y8
	VPBROADCASTQ (R11)(AX*8), Y9
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

bucketdone:
	VZEROUPPER
	RET
