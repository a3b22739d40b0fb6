//go:build !amd64 || purego

package obliv

// SIMDWordLoops reports whether the fused word loops run on SIMD kernels
// (false here: portable scalar fallback).
const SIMDWordLoops = false

// kernels lists the bucket-kernel bodies this build can run: the portable
// one.
func kernels() []isa { return []isa{isaGo} }

// scanLanes is the vector bodies' entry point; no body here selects it.
func scanLanes(t *Tiers, ida, idb uint64, r1a, r1b, r2 int, obja, objb *byte, write uint8, wa, wb, lanes1, lanes2 int, wide, pair bool) {
	panic("obliv: no vector kernel in this build")
}

// swapBlocksVec is the vector block pass; no body here selects it.
func swapBlocksVec(c, a, b *byte, n, size int) {
	panic("obliv: no vector kernel in this build")
}

// The vector column passes; no body here selects them.
func swapU64sVec(c *byte, a, b *uint64, n int) { panic("obliv: no vector kernel in this build") }
func swapU32sVec(c *byte, a, b *uint32, n int) { panic("obliv: no vector kernel in this build") }
func swapU8sVec(c, a, b *byte, n int)          { panic("obliv: no vector kernel in this build") }

// fusedWords applies obj' = obj^(mw&(obj^slot)), slot' = slot^(mrw&(obj^slot))
// to the first n bytes of both slices. n must be a multiple of 8 and no
// larger than either length.
func fusedWords(mw, mrw uint64, obj, slot []byte, n int) {
	for i := 0; i+8 <= n; i += 8 {
		o := leU64(obj[i:])
		s := leU64(slot[i:])
		putLeU64(obj[i:], o^(mw&(o^s)))
		putLeU64(slot[i:], s^(mrw&(s^o)))
	}
}

// condCopyWords applies dst' = dst^(m&(dst^src)) to the first n bytes.
// n must be a multiple of 8 and no larger than either length. src is
// never written.
func condCopyWords(m uint64, dst, src []byte, n int) {
	for i := 0; i+8 <= n; i += 8 {
		d := leU64(dst[i:])
		s := leU64(src[i:])
		putLeU64(dst[i:], d^(m&(d^s)))
	}
}
