package obliv

// Oblivious distribution — the inverse of Compact (Krastnikov, Kerschbaum,
// Stebila: "Efficient Oblivious Database Joins", §3.4). Where Compact
// gathers marked elements to the front, Distribute scatters elements from
// the front to destinations they carry; together they replace "pad with
// every possible dummy, then sort" (O(n log² n)) wherever each element's
// slot is already known (O(n log n)).

// NoTarget is the Target of an element with no destination (filler).
const NoTarget = ^uint64(0)

// Router is a Swapper whose elements carry their own destination, so it
// travels with them through every OSwap. Target returns the slot element i
// must end up in, or NoTarget.
type Router interface {
	Swapper
	Target(i int) uint64
}

// Distribute moves every element with a Target to that slot. Precondition:
// the k elements that have one sit at s[0:k) with strictly increasing
// targets below s.Len(). The other elements fill the remaining slots in
// unspecified order.
//
// It runs Compact's routing network backwards: the same (i, j) pairs —
// a function of s.Len() alone — visited outermost layer first, performing
// exactly CompactCost(s.Len()) OSwaps. Targets only ever feed a swap
// condition: a pair is exchanged iff either element's destination lies in
// the other element's half, decided with branch-free comparisons. That
// the two elements of a pair never want the same half is Compact's
// correctness read in reverse — every layer of the forward network pairs
// one element of each half.
func Distribute(s Router) {
	distribute(s, 0, s.Len())
}

// distribute undoes orCompact on s[lo:lo+n] — and orOffCompact too: for a
// power-of-two n the layers coincide, and the pair rule needs neither the
// rotation offset nor the mark counts the forward direction threads through.
func distribute(s Router, lo, n int) {
	if n < 2 {
		return
	}
	stride := greatestPowerOfTwoLessThan(n)
	left := n - stride // pairs (i, i+stride) span the two recursion halves
	mid, end := uint64(lo+left), uint64(lo+n)
	for i := lo; i < lo+left; i++ {
		a, b := s.Target(i), s.Target(i+stride)
		aRight := GeU64(a, mid) & LtU64(a, end)
		s.OSwap(aRight|LtU64(b, mid), i, i+stride)
	}
	distribute(s, lo, left)
	distribute(s, lo+left, stride)
}

// CompactCost returns the number of OSwaps Compact and Distribute perform
// on n elements: (n/2)·log₂ n for a power of two. Public-parameter
// function, planner companion to SortCost. The recursion (peel the largest
// power of two, pair the remainder against it) is the arbitrary-length
// bitonic merge's, hence the shared closed form.
func CompactCost(n int) int { return bitonicMergeCost(n) }

// DistributeCost is CompactCost under the name of the pass being priced.
func DistributeCost(n int) int { return CompactCost(n) }
