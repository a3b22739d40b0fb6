package obliv

// Oblivious, order-preserving compaction (paper §4.2.1: "Goodrich's
// algorithm ... runs in time O(n log n) and is order-preserving").
//
// Compact moves the elements whose mark bit is 1 to the front of s,
// preserving their relative order; the unmarked elements end up after them
// in unspecified order. The sequence of swap positions depends only on
// s.Len(): mark bits influence only swap *conditions*, via branch-free
// arithmetic. The implementation is the ORCompact / OROffCompact recursion
// (Sasy, Johnson, Goldberg), which performs exactly the swap schedule of a
// reverse butterfly routing network — the same O(n log n) network Goodrich's
// compaction routes through.
//
// marks must have length s.Len() with entries 0 or 1. marks is consumed
// (it is not updated to reflect element movement).
func Compact(s Swapper, marks []uint8) {
	if s.Len() != len(marks) {
		panic("obliv: Compact marks length mismatch")
	}
	b := getRunBuf()
	orCompact(s, b, marks, 0, s.Len())
	b.release()
}

// orCompact compacts s[lo:lo+n] for arbitrary n.
func orCompact(s Swapper, b *runBuf, marks []uint8, lo, n int) {
	if n < 2 {
		return
	}
	n1 := greatestPowerOfTwoLessThan(n + 1) // largest power of two <= n
	if n1 == n {
		orOffCompact(s, b, marks, lo, n, 0)
		return
	}
	n2 := n - n1
	m := 0
	for i := lo; i < lo+n2; i++ {
		m += int(marks[i])
	}
	orCompact(s, b, marks, lo, n2)
	orOffCompact(s, b, marks, lo+n2, n1, (n1-n2+m)%n1)
	thresholdRun(s, b, lo, lo+n1, n2, uint64(m), 0)
}

// orOffCompact compacts s[lo:lo+n] (n a power of two) so that the marked
// elements occupy positions lo+z, lo+z+1, ... (mod n), in order.
func orOffCompact(s Swapper, b *runBuf, marks []uint8, lo, n, z int) {
	if n < 2 {
		return
	}
	if n == 2 {
		c := b.c[:1]
		c[0] = ((1 - marks[lo]) & marks[lo+1]) ^ uint8(z&1)
		s.SwapRun(c, lo, lo+1)
		return
	}
	h := n / 2
	m := 0
	for i := lo; i < lo+h; i++ {
		m += int(marks[i])
	}
	orOffCompact(s, b, marks, lo, h, z%h)
	orOffCompact(s, b, marks, lo+h, h, (z+m)%h)
	// sbit and the per-pair conditions depend on the secret count m,
	// computed branch-free.
	zm := uint64(z % h)
	zpm := uint64((z + m) % h)
	sbit := GeU64(zm+uint64(m), uint64(h)) ^ GeU64(uint64(z), uint64(h))
	thresholdRun(s, b, lo, lo+h, h, zpm, sbit)
}

// thresholdRun exchanges the pairs (i+t, j+t), t < n, under the condition
// shape of every compaction layer: flip ^ (t >= from), a step at a secret
// offset.
func thresholdRun(s Swapper, b *runBuf, i, j, n int, from uint64, flip uint8) {
	for off := 0; off < n; off += runLen {
		c := b.c[:min(n-off, runLen)]
		for t := range c {
			c[t] = flip ^ GeU64(uint64(off+t), from)
		}
		s.SwapRun(c, i+off, j+off)
	}
}
