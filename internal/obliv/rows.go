package obliv

// Row kernels: the column passes a collection's SwapRun is built from. Each
// exchanges a[t] and b[t] iff c[t] == 1, for every t < len(c), in one
// streaming pass that reads and writes every element of both runs whatever
// the conditions; the masks are rebuilt from c and reach only AND operands.
// a and b must hold at least len(c) elements (blocks) each.

// SwapRunU8 exchanges a run of byte elements.
func SwapRunU8(c []uint8, a, b []uint8) {
	a, b = a[:len(c)], b[:len(c)]
	v := 0
	if rowKernel != isaGo && len(c) >= 8 {
		v = len(c) &^ 7
		swapU8sVec(&c[0], &a[0], &b[0], v)
	}
	for t := v; t < len(c); t++ {
		d := (a[t] ^ b[t]) & -c[t]
		a[t] ^= d
		b[t] ^= d
	}
}

// SwapRunU32 exchanges a run of 32-bit elements.
func SwapRunU32(c []uint8, a, b []uint32) {
	a, b = a[:len(c)], b[:len(c)]
	v := 0
	if rowKernel != isaGo && len(c) >= 8 {
		v = len(c) &^ 7
		swapU32sVec(&c[0], &a[0], &b[0], v)
	}
	for t := v; t < len(c); t++ {
		d := (a[t] ^ b[t]) & -uint32(c[t])
		a[t] ^= d
		b[t] ^= d
	}
}

// SwapRunU64 exchanges a run of 64-bit elements.
func SwapRunU64(c []uint8, a, b []uint64) {
	a, b = a[:len(c)], b[:len(c)]
	v := 0
	if rowKernel != isaGo && len(c) >= 4 {
		v = len(c) &^ 3
		swapU64sVec(&c[0], &a[0], &b[0], v)
	}
	for t := v; t < len(c); t++ {
		d := (a[t] ^ b[t]) & -uint64(c[t])
		a[t] ^= d
		b[t] ^= d
	}
}

// SwapRunBlocks exchanges a run of size-byte blocks, block t being
// a[t·size:(t+1)·size], with one kernel call for the whole run.
func SwapRunBlocks(c []uint8, a, b []byte, size int) {
	a, b = a[:len(c)*size], b[:len(c)*size]
	cols := 0
	if rowKernel != isaGo && size >= 32 && len(c) > 0 {
		cols = size &^ 31
		swapBlocksVec(&c[0], &a[0], &b[0], len(c), size)
	}
	if cols < size {
		swapBlockWords(c, a, b, size, cols)
	}
}

// swapBlockWords is the portable block pass, and the specification of the
// vector one: bytes [from, size) of every block, 8-byte words first.
func swapBlockWords(c []uint8, a, b []byte, size, from int) {
	words := from + (size-from)&^7
	for t, ct := range c {
		m := -uint64(ct)
		x, y := a[t*size:(t+1)*size], b[t*size:(t+1)*size]
		for w := from; w < words; w += 8 {
			p, q := leU64(x[w:]), leU64(y[w:])
			d := (p ^ q) & m
			putLeU64(x[w:], p^d)
			putLeU64(y[w:], q^d)
		}
		for k := words; k < size; k++ {
			d := (x[k] ^ y[k]) & -ct
			x[k] ^= d
			y[k] ^= d
		}
	}
}

// rowKernel is the body the row kernels run: the platform's widest unless
// UseRowKernel picked another. Every vector body runs the AVX2 passes: a
// ternary-logic select halves a block swap's ALU operations, but moving two
// L2-resident blocks is bound on the memory traffic and measured no faster.
var rowKernel = kernel

// UseRowKernel makes the row kernels run the named body instead of the
// platform's widest, process-wide, and returns a function restoring the
// previous one — so a differential or a benchmark can put every body the
// host has through the same networks. It panics on a body the platform
// lacks. Call it only while no rows are being exchanged.
func UseRowKernel(name string) (restore func()) {
	prev := rowKernel
	for _, k := range kernels() {
		if k.String() == name {
			rowKernel = k
			return func() { rowKernel = prev }
		}
	}
	panic("obliv: no kernel body " + name + " on this platform")
}
