package obliv

// Oblivious, order-preserving compaction (paper §4.2.1: "Goodrich's
// algorithm ... runs in time O(n log n) and is order-preserving").
//
// Compact moves the elements whose mark bit is 1 to the front of s,
// preserving their relative order; the unmarked elements end up after them
// in unspecified order. The sequence of OSwap positions depends only on
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
	orCompact(s, marks, 0, s.Len())
}

// orCompact compacts s[lo:lo+n] for arbitrary n.
func orCompact(s Swapper, marks []uint8, lo, n int) {
	if n < 2 {
		return
	}
	n1 := greatestPowerOfTwoLessThan(n + 1) // largest power of two <= n
	if n1 == n {
		orOffCompact(s, marks, lo, n, 0)
		return
	}
	n2 := n - n1
	m := 0
	for i := lo; i < lo+n2; i++ {
		m += int(marks[i])
	}
	orCompact(s, marks, lo, n2)
	orOffCompact(s, marks, lo+n2, n1, (n1-n2+m)%n1)
	mm := uint64(m)
	for i := 0; i < n2; i++ {
		b := GeU64(uint64(i), mm)
		s.OSwap(b, lo+i, lo+i+n1)
	}
}

// orOffCompact compacts s[lo:lo+n] (n a power of two) so that the marked
// elements occupy positions lo+z, lo+z+1, ... (mod n), in order.
func orOffCompact(s Swapper, marks []uint8, lo, n, z int) {
	if n < 2 {
		return
	}
	if n == 2 {
		b := ((1 - marks[lo]) & marks[lo+1]) ^ uint8(z&1)
		s.OSwap(b, lo, lo+1)
		return
	}
	h := n / 2
	m := 0
	for i := lo; i < lo+h; i++ {
		m += int(marks[i])
	}
	orOffCompact(s, marks, lo, h, z%h)
	orOffCompact(s, marks, lo+h, h, (z+m)%h)
	var sbit uint8
	// sbit and the per-i conditions depend on the secret count m, computed
	// branch-free below.
	zm := uint64(z % h)
	zpm := uint64((z + m) % h)
	sbit = GeU64(zm+uint64(m), uint64(h)) ^ GeU64(uint64(z), uint64(h))
	for i := 0; i < h; i++ {
		b := sbit ^ GeU64(uint64(i), zpm)
		s.OSwap(b, lo+i, lo+i+h)
	}
}
