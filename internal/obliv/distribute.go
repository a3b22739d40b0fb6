package obliv

// Oblivious distribution — the inverse of Compact (Krastnikov, Kerschbaum,
// Stebila: "Efficient Oblivious Database Joins", §3.4). Where Compact
// gathers marked elements to the front, Distribute scatters elements from
// the front to destinations they carry; together they replace "pad with
// every possible dummy, then sort" (O(n log² n)) wherever each element's
// slot is already known (O(n log n)).

// NoTarget is the target of an element with no destination (filler).
const NoTarget = ^uint64(0)

// Router is a Swapper whose elements carry their own destination, so it
// travels with them through every swap. Targets fills dst[t] with the slot
// element i+t must end up in, or NoTarget, for every t < len(dst).
type Router interface {
	Swapper
	Targets(dst []uint64, i int)
}

// Distribute moves every element with a target to that slot. Precondition:
// the k elements that have one sit at s[0:k) with strictly increasing
// targets below s.Len(). The other elements fill the remaining slots in
// unspecified order.
//
// It runs Compact's routing network backwards: the same (i, j) pairs —
// a function of s.Len() alone — visited outermost layer first, performing
// exactly CompactCost(s.Len()) swaps. Targets only ever feed a swap
// condition: a pair is exchanged iff either element's destination lies in
// the other element's half, decided with branch-free comparisons. That
// the two elements of a pair never want the same half is Compact's
// correctness read in reverse — every layer of the forward network pairs
// one element of each half.
func Distribute(s Router) {
	b := getRunBuf()
	distribute(s, b, 0, s.Len())
	b.release()
}

// distribute undoes orCompact on s[lo:lo+n] — and orOffCompact too: for a
// power-of-two n the layers coincide, and the pair rule needs neither the
// rotation offset nor the mark counts the forward direction threads through.
func distribute(s Router, b *runBuf, lo, n int) {
	if n < 2 {
		return
	}
	stride := greatestPowerOfTwoLessThan(n)
	left := n - stride // pairs (i, i+stride) span the two recursion halves
	mid, end := uint64(lo+left), uint64(lo+n)
	for off := 0; off < left; off += runLen {
		k := min(left-off, runLen)
		c, x, y := b.c[:k], b.tgt[:k], b.tgt[runLen:runLen+k]
		s.Targets(x, lo+off)
		s.Targets(y, lo+off+stride)
		for t := range c {
			xRight := GeU64(x[t], mid) & LtU64(x[t], end)
			c[t] = xRight | LtU64(y[t], mid)
		}
		s.SwapRun(c, lo+off, lo+off+stride)
	}
	distribute(s, b, lo, left)
	distribute(s, b, lo+left, stride)
}

// CompactCost returns the number of swaps Compact and Distribute perform
// on n elements: (n/2)·log₂ n for a power of two. Public-parameter
// function, planner companion to SortCost. The recursion (peel the largest
// power of two, pair the remainder against it) is the arbitrary-length
// bitonic merge's, hence the shared closed form.
func CompactCost(n int) int { return bitonicMergeCost(n) }

// DistributeCost is CompactCost under the name of the pass being priced.
func DistributeCost(n int) int { return CompactCost(n) }
