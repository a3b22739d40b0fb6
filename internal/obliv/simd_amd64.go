//go:build amd64 && !purego

package obliv

// SIMDWordLoops reports whether the fused word loops run on the SSE2
// kernels in simd_amd64.s (true here) or the portable scalar fallback.
const SIMDWordLoops = true

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// kernels lists the bucket-kernel bodies this platform can run, narrowest
// first: the portable one always; AVX2 when the CPU implements it and the OS
// saves the YMM state across context switches; AVX-512VL when the CPU also
// has AVX512F and VL and the OS saves the opmask and ZMM state (XCR0 bits
// 5–7), which the EVEX encoding requires even on 256-bit registers.
func kernels() []isa {
	ks := []isa{isaGo}
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return ks
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return ks
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state enabled
		return ks
	}
	const avx2, avx512f, avx512vl = 1 << 5, 1 << 16, 1 << 31
	_, b, _, _ := cpuid(7, 0)
	if b&avx2 == 0 {
		return ks
	}
	ks = append(ks, isaAVX2)
	if b&(avx512f|avx512vl) == avx512f|avx512vl && xcr0&0xe0 == 0xe0 {
		ks = append(ks, isaAVX512VL)
	}
	return ks
}

// scanBucketLanes is the vector bodies' share of Buckets.scan for the
// bucket whose first row is lo: prefetch the z rows from row warm (if not
// negative), run the key pass over the first lanes slots (a multiple of
// four; the masks of the rest are already in b.mw/b.mrw), then the block
// pass over the first blockSize&^31 bytes of obj and of all z slots — with
// VPTERNLOGQ on 160-byte columns if wide, with and/xor on 128-byte columns
// if not.
//
//go:noescape
func scanBucketLanes(b *Buckets, lo, lanes int, id uint64, obj *byte, write uint8, warm int, wide bool)

// swapBlocksVec is the vector block pass of SwapRunBlocks: for t < n, the
// first size&^31 bytes of blocks t of a and b are exchanged iff c[t] == 1.
//
//go:noescape
func swapBlocksVec(c, a, b *byte, n, size int)

// swapU64sVec, swapU32sVec and swapU8sVec are the vector column passes of
// SwapRunU64, SwapRunU32 and SwapRunU8 over the first n elements; n must be
// a positive multiple of 4, 8 and 8 respectively.
//
//go:noescape
func swapU64sVec(c *byte, a, b *uint64, n int)

//go:noescape
func swapU32sVec(c *byte, a, b *uint32, n int)

//go:noescape
func swapU8sVec(c, a, b *byte, n int)

//go:noescape
func fusedAccessAsm(mw, mrw uint64, obj, slot *byte, n int)

//go:noescape
func condCopyAsm(m uint64, dst, src *byte, n int)

// fusedWords applies obj' = obj^(mw&(obj^slot)), slot' = slot^(mrw&(obj^slot))
// to the first n bytes of both slices. n must be a multiple of 8 and no
// larger than either length.
func fusedWords(mw, mrw uint64, obj, slot []byte, n int) {
	if n > 0 {
		fusedAccessAsm(mw, mrw, &obj[0], &slot[0], n)
	}
}

// condCopyWords applies dst' = dst^(m&(dst^src)) to the first n bytes.
// n must be a multiple of 8 and no larger than either length. src is
// never written.
func condCopyWords(m uint64, dst, src []byte, n int) {
	if n > 0 {
		condCopyAsm(m, &dst[0], &src[0], n)
	}
}
