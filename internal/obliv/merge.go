package obliv

import "math/bits"

// MergeSorted obliviously merges k consecutive ascending runs held in s into
// one ascending sequence. runs gives the length of each run, laid out
// back-to-back from index 0; their sum must equal s.Len(). The merge performs
// O(n log n · log k) compare-exchanges — asymptotically cheaper than
// re-sorting from scratch (O(n log² n)) — and, like Sort, its sequence of
// touched (i, j) positions depends only on the run lengths, never on element
// values: run lengths are public parameters, so the schedule leaks nothing.
//
// Like Sort, MergeSorted is not stable; callers that need a deterministic
// order for equal keys must fold a tiebreaker into Greater.
func MergeSorted(s Sorter, runs []int) {
	total := 0
	for _, r := range runs {
		if r < 0 {
			panic("obliv: MergeSorted run length negative")
		}
		total += r
	}
	if total != s.Len() {
		panic("obliv: MergeSorted run lengths do not cover the sequence")
	}
	mergeRuns(s, 0, runs)
}

// mergeRuns merges the consecutive runs starting at lo via a balanced binary
// tree of two-run merges: left half of the runs, right half, then the pair.
// The tree shape depends only on len(runs), keeping the schedule public.
func mergeRuns(s Sorter, lo int, runs []int) int {
	switch len(runs) {
	case 0:
		return 0
	case 1:
		return runs[0]
	}
	h := len(runs) / 2
	a := mergeRuns(s, lo, runs[:h])
	b := mergeRuns(s, lo+a, runs[h:])
	mergeTwoRuns(s, lo, a, b)
	return a + b
}

// mergeTwoRuns merges the ascending runs s[lo:lo+a] and s[lo+a:lo+a+b] into
// one ascending run. It first reverses the left run with unconditional swaps
// (a fixed permutation — no data-dependent access), turning the concatenation
// into a "v-shaped" sequence (descending then ascending, with an arbitrary
// inflection point). Lang's arbitrary-length bitonicMerge sorts exactly that
// class: at every level the m = 2^⌊log n⌋ window compare-exchanges push the
// n-m largest elements into the upper part and leave both recursion halves
// v-shaped again. Reversing is essential — merging two ascending runs
// directly forms a Λ-shaped sequence, which the arbitrary-length network does
// NOT sort (e.g. [2,3,1] stays broken); see TestMergeTwoRunsZeroOne for the
// exhaustive 0/1-principle check of the v-shaped claim.
func mergeTwoRuns(s Sorter, lo, a, b int) {
	if a == 0 || b == 0 {
		return
	}
	for i := 0; i < a/2; i++ {
		s.OSwap(1, lo+i, lo+a-1-i)
	}
	bitonicMerge(s, lo, a+b, true)
}

// MergeSortedCost returns the number of row operations MergeSorted will
// perform for the given run lengths — each two-run merge's compare-exchanges
// plus the swaps that reverse its left run — a pure function of public
// parameters, used by the planner's cost model and by tests asserting the
// merge beats a full re-sort.
func MergeSortedCost(runs []int) int {
	_, cost := mergeSortedCost(runs)
	return cost
}

// mergeSortedCost walks MergeSorted's merge tree: the rows under lens and
// the row operations merging them costs.
func mergeSortedCost(lens []int) (rows, cost int) {
	switch len(lens) {
	case 0:
		return 0, 0
	case 1:
		return lens[0], 0
	}
	h := len(lens) / 2
	a, ca := mergeSortedCost(lens[:h])
	b, cb := mergeSortedCost(lens[h:])
	cost = ca + cb
	if a > 0 && b > 0 {
		cost += a/2 + bitonicMergeCost(a+b)
	}
	return a + b, cost
}

// SortCost returns the number of compare-exchanges Sort performs on a
// sequence of length n. Public-parameter function, planner companion to
// MergeSortedCost. The two halves of a length differ by at most one, so a
// level of the recursion holds at most two distinct lengths, a and a+1: the
// walk carries their counts down the levels — O(log n) steps, no allocation
// (the hash-table geometry search prices hundreds of tables per call).
func SortCost(n int) int {
	cost := 0
	a, ca, cb := n, 1, 0 // ca runs of length a, cb of length a+1
	for a >= 1 {
		cost += ca*bitonicMergeCost(a) + cb*bitonicMergeCost(a+1)
		if a%2 == 0 {
			a, ca = a/2, 2*ca+cb
		} else {
			a, cb = a/2, ca+2*cb
		}
	}
	return cost
}

func bitonicMergeCost(n int) int {
	// A power of two m costs log₂ m levels of m/2 comparators; any other
	// length pairs its remainder against its largest power of two, then
	// merges both: one top bit stripped per step.
	cost := 0
	for n > 1 {
		m := 1 << (bits.Len(uint(n)) - 1)
		cost += (n - m) + m*(bits.Len(uint(m))-1)/2
		n -= m
	}
	return cost
}
