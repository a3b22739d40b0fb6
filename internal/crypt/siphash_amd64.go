//go:build amd64 && !purego

package crypt

// sipBuckets8 is the vector body of SipBucketsN over the first n
// identifiers from ids (n a positive multiple of 8): SipHash-2-4 with the
// initial state v (the key folded into the four constants) in eight 64-bit
// lanes a step, then the two multiply-shift reductions by n1 and n2 (each
// below 2³²) into b1 and b2. Rotations are VPROLQ if wide (AVX-512VL on
// 256-bit registers), shift pairs (AVX2) if not.
//
//go:noescape
func sipBuckets8(v *[4]uint64, ids *uint64, n int, n1, n2 uint64, b1, b2 *uint32, wide bool)
