package obliv

import (
	"bytes"
	"math/rand"
	"testing"
)

// Scalar reference implementations: the pre-SIMD word loops, kept here as
// the oracle the optimized kernels must match bit-for-bit.

func refFusedAccess(cw, cr uint8, obj, slot []byte) {
	mwb := MaskByte(cw)
	mrwb := MaskByte(cr | cw)
	for i := range obj {
		o := obj[i]
		s := slot[i]
		obj[i] = o ^ (mwb & (o ^ s))
		slot[i] = s ^ (mrwb & (s ^ o))
	}
}

func refCondCopy(c uint8, dst, src []byte) {
	mb := MaskByte(c)
	for i := range dst {
		dst[i] ^= mb & (dst[i] ^ src[i])
	}
}

func refCondSwap(c uint8, a, b []byte) {
	mb := MaskByte(c)
	for i := range a {
		t := mb & (a[i] ^ b[i])
		a[i] ^= t
		b[i] ^= t
	}
}

// TestFusedWordLoopsMatchReference cross-checks the word-loop kernels
// (SSE2 on amd64, scalar elsewhere) against byte-at-a-time references over
// lengths that exercise the 32/16/8-byte chunks and every tail size.
func TestFusedWordLoopsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 96, 100, 160, 161, 1024, 1031}
	for _, n := range lengths {
		for trial := 0; trial < 64; trial++ {
			a1 := make([]byte, n)
			b1 := make([]byte, n)
			r.Read(a1)
			r.Read(b1)
			a2 := append([]byte(nil), a1...)
			b2 := append([]byte(nil), b1...)

			cw := uint8(trial & 1)
			cr := uint8((trial>>1)&1) & (1 - cw)
			aRef := append([]byte(nil), a1...)
			bRef := append([]byte(nil), b1...)
			FusedAccess(cw, cr, a1, b1)
			refFusedAccess(cw, cr, aRef, bRef)
			if !bytes.Equal(a1, aRef) || !bytes.Equal(b1, bRef) {
				t.Fatalf("FusedAccess mismatch n=%d cw=%d cr=%d", n, cw, cr)
			}

			c := uint8(trial & 1)
			srcSnap := append([]byte(nil), b2...)
			copy(a1, a2)
			copy(b1, b2)
			aRef = append([]byte(nil), a2...)
			CondCopyBytes(c, a1, b1)
			refCondCopy(c, aRef, srcSnap)
			if !bytes.Equal(a1, aRef) {
				t.Fatalf("CondCopyBytes dst mismatch n=%d c=%d", n, c)
			}
			if !bytes.Equal(b1, srcSnap) {
				t.Fatalf("CondCopyBytes mutated src n=%d c=%d", n, c)
			}
		}
	}
}

// TestFusedWordLoopsUnalignedBase verifies the kernels at every base
// misalignment: MOVOU handles unaligned addresses, but the wrapper's tail
// split must still be exact when the slice does not start 16-byte aligned.
func TestFusedWordLoopsUnalignedBase(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	backA := make([]byte, 256)
	backB := make([]byte, 256)
	for off := 0; off < 16; off++ {
		for _, n := range []int{8, 40, 160} {
			a := backA[off : off+n]
			b := backB[off : off+n]
			r.Read(a)
			r.Read(b)
			aRef := append([]byte(nil), a...)
			bRef := append([]byte(nil), b...)
			FusedAccess(1, 0, a, b)
			refFusedAccess(1, 0, aRef, bRef)
			if !bytes.Equal(a, aRef) || !bytes.Equal(b, bRef) {
				t.Fatalf("unaligned mismatch off=%d n=%d", off, n)
			}
		}
	}
}

// TestRowKernelsMatchReference checks every row kernel on every body the
// host has against per-element conditional swaps: run lengths 0…70 and
// 255, 256, 300 at every base offset 0…3 (the vector passes take 4, 8, 32
// elements a step and leave a tail), block sizes on and off the 32- and
// 8-byte steps, and nothing written past the run.
func TestRowKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 300)
	for _, body := range Kernels() {
		restore := UseRowKernel(body)
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				c := make([]uint8, n)
				for i := range c {
					c[i] = uint8(r.Intn(2))
				}
				const pad = 40 // elements after the run that must not move
				a8, b8 := make([]uint8, off+n+pad), make([]uint8, off+n+pad)
				a32, b32 := make([]uint32, off+n+pad), make([]uint32, off+n+pad)
				a64, b64 := make([]uint64, off+n+pad), make([]uint64, off+n+pad)
				r.Read(a8)
				r.Read(b8)
				for i := range a64 {
					a32[i], b32[i], a64[i], b64[i] = r.Uint32(), r.Uint32(), r.Uint64(), r.Uint64()
				}
				w8a, w8b := append([]uint8(nil), a8...), append([]uint8(nil), b8...)
				w32a, w32b := append([]uint32(nil), a32...), append([]uint32(nil), b32...)
				w64a, w64b := append([]uint64(nil), a64...), append([]uint64(nil), b64...)
				for t, ct := range c {
					CondSwapU8(ct, &w8a[off+t], &w8b[off+t])
					CondSwapU32(ct, &w32a[off+t], &w32b[off+t])
					CondSwapU64(ct, &w64a[off+t], &w64b[off+t])
				}
				SwapRunU8(c, a8[off:], b8[off:])
				SwapRunU32(c, a32[off:], b32[off:])
				SwapRunU64(c, a64[off:], b64[off:])
				if !bytes.Equal(a8, w8a) || !bytes.Equal(b8, w8b) {
					t.Fatalf("%s: SwapRunU8 n=%d off=%d differs from the reference", body, n, off)
				}
				for i := range a64 {
					if a32[i] != w32a[i] || b32[i] != w32b[i] || a64[i] != w64a[i] || b64[i] != w64b[i] {
						t.Fatalf("%s: SwapRunU32/U64 n=%d off=%d differ at %d", body, n, off, i)
					}
				}
				if n > 20 && n != 64 {
					continue
				}
				for _, size := range []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96, 160, 161, 200} {
					a, b := make([]byte, (n+1)*size+off), make([]byte, (n+1)*size+off)
					r.Read(a)
					r.Read(b)
					wa, wb := append([]byte(nil), a...), append([]byte(nil), b...)
					for t, ct := range c {
						refCondSwap(ct, wa[off+t*size:off+(t+1)*size], wb[off+t*size:off+(t+1)*size])
					}
					SwapRunBlocks(c, a[off:], b[off:], size)
					if !bytes.Equal(a, wa) || !bytes.Equal(b, wb) {
						t.Fatalf("%s: SwapRunBlocks n=%d size=%d off=%d differs from the reference", body, n, size, off)
					}
				}
			}
		}
		restore()
	}
}

func BenchmarkCondCopyBytes160(b *testing.B) {
	x := make([]byte, 160)
	y := make([]byte, 160)
	b.SetBytes(320)
	for i := 0; i < b.N; i++ {
		CondCopyBytes(uint8(i&1), x, y)
	}
}
