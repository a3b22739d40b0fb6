//go:build amd64 && !purego

package obliv

// SIMDWordLoops reports whether the fused word loops run on the SSE2
// kernels in simd_amd64.s (true here) or the portable scalar fallback.
const SIMDWordLoops = true

// hasAVX2 selects the 32-byte-lane bodies of BucketMasks and FusedBucket.
// It is read from CPUID once at package init: a public property of the
// platform, never of data.
var hasAVX2 = detectAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches.
func detectAVX2() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

//go:noescape
func bucketMasksAVX2(id uint64, key *uint64, tag, op, aux *uint8, write uint8, n int, mw, mrw *uint64)

// bucketMasksLanes runs BucketMasks' leading multiple-of-four slots on the
// AVX2 lanes and returns how many slots it covered (0 without AVX2).
func bucketMasksLanes(id uint64, key []uint64, tag, op, aux []uint8, write uint8, mw, mrw []uint64) int {
	n := len(key) &^ 3
	if !hasAVX2 || n == 0 {
		return 0
	}
	bucketMasksAVX2(id, &key[0], &tag[0], &op[0], &aux[0], write, n, &mw[0], &mrw[0])
	return n
}

//go:noescape
func fusedBucketAVX2(obj, slots *byte, n, blockSize, z int, mw, mrw *uint64)

// fusedBucketLanes runs FusedBucket's leading 32-byte-multiple columns on
// the AVX2 lanes and returns how many bytes of every block it covered (0
// without AVX2): fusedBucketWords finishes from there.
func fusedBucketLanes(obj, slots []byte, blockSize int, mw, mrw []uint64) int {
	n := blockSize &^ 31
	if !hasAVX2 || n == 0 || len(mw) == 0 {
		return 0
	}
	fusedBucketAVX2(&obj[0], &slots[0], n, blockSize, len(mw), &mw[0], &mrw[0])
	return n
}

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
