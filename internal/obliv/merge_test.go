package obliv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// splitRuns partitions n into k non-negative run lengths using rng; some runs
// may be empty, exercising the empty-run skip path.
func splitRuns(rng *rand.Rand, n, k int) []int {
	runs := make([]int, k)
	left := n
	for i := 0; i < k-1; i++ {
		runs[i] = rng.Intn(left + 1)
		left -= runs[i]
	}
	runs[k-1] = left
	return runs
}

func sortRunsAscending(u U64Slice, runs []int) {
	off := 0
	for _, r := range runs {
		seg := u[off : off+r]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		off += r
	}
}

func checkMerged(t *testing.T, u U64Slice, want []uint64, ctx string) {
	t.Helper()
	for i := range u {
		if u[i] != want[i] {
			t.Fatalf("%s: index %d = %d, want %d (full: %v vs %v)", ctx, i, u[i], want[i], u, want)
		}
	}
}

// TestMergeSortedMatchesSort cross-checks MergeSorted against sort-from-scratch
// for every length 0..96 (every non-power-of-two included) and several run
// counts, on random values with heavy duplication.
func TestMergeSortedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 96; n++ {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8} {
			for trial := 0; trial < 4; trial++ {
				u := make(U64Slice, n)
				for i := range u {
					u[i] = uint64(rng.Intn(n/2 + 1)) // dense duplicates
				}
				want := append([]uint64(nil), u...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

				runs := splitRuns(rng, n, k)
				sortRunsAscending(u, runs)
				MergeSorted(u, runs)
				checkMerged(t, u, want, fmt.Sprintf("n=%d k=%d runs=%v", n, k, runs))
			}
		}
	}
}

// TestMergeSortedAdversarial drives the merge through hand-picked worst-case
// run shapes: all-equal values, fully interleaved runs, strictly descending
// value blocks, one giant run plus singletons, and runs of maximally skewed
// lengths.
func TestMergeSortedAdversarial(t *testing.T) {
	cases := []struct {
		name string
		vals []uint64
		runs []int
	}{
		{"lambda-counterexample", []uint64{2, 3, 1}, []int{2, 1}},
		{"all-equal", []uint64{5, 5, 5, 5, 5, 5, 5}, []int{3, 4}},
		{"interleaved", []uint64{0, 2, 4, 6, 8, 1, 3, 5, 7, 9}, []int{5, 5}},
		{"descending-blocks", []uint64{7, 8, 9, 4, 5, 6, 1, 2, 3}, []int{3, 3, 3}},
		{"empty-runs", []uint64{3, 1, 2}, []int{1, 0, 2, 0}},
		{"giant-plus-singletons", []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11}, []int{10, 1, 1}},
		{"skewed", []uint64{9, 0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := append(U64Slice(nil), tc.vals...)
			want := append([]uint64(nil), tc.vals...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sortRunsAscending(u, tc.runs)
			MergeSorted(u, tc.runs)
			checkMerged(t, u, want, tc.name)
		})
	}
}

// TestMergeTwoRunsZeroOne is the exhaustive 0/1-principle proof of the
// two-run merge for every split (a, b) with a+b <= 28. A comparator network
// (plus the fixed reversal permutation) sorts all inputs iff it sorts all 0/1
// inputs; every 0/1 pair of ascending runs is 0^p 1^q ++ 0^r 1^t, which after
// reversing the left run is the v-shaped 1^q 0^(p+r) 1^t — exactly the class
// mergeTwoRuns claims Lang's arbitrary-length bitonicMerge handles.
func TestMergeTwoRunsZeroOne(t *testing.T) {
	for n := 2; n <= 28; n++ {
		for a := 0; a <= n; a++ {
			b := n - a
			for p := 0; p <= a; p++ {
				for r := 0; r <= b; r++ {
					u := make(U64Slice, n)
					ones := 0
					for i := p; i < a; i++ {
						u[i] = 1
						ones++
					}
					for i := a + r; i < n; i++ {
						u[i] = 1
						ones++
					}
					mergeTwoRuns(u, 0, a, b)
					for i := range u {
						want := uint64(0)
						if i >= n-ones {
							want = 1
						}
						if u[i] != want {
							t.Fatalf("n=%d a=%d b=%d p=%d r=%d: got %v", n, a, b, p, r, u)
						}
					}
				}
			}
		}
	}
}

// mergeTraceSorter records the position sequence of every Greater and OSwap call —
// but not values or swap conditions — so tests can prove the schedule is a
// function of the run lengths alone.
type mergeTraceSorter struct {
	u     U64Slice
	trace [][3]int // {op (0=Greater, 1=OSwap), i, j}
}

func (ts *mergeTraceSorter) Len() int { return len(ts.u) }

func (ts *mergeTraceSorter) OSwap(c uint8, i, j int) {
	ts.trace = append(ts.trace, [3]int{1, i, j})
	ts.u.OSwap(c, i, j)
}

func (ts *mergeTraceSorter) Greater(i, j int) uint8 {
	ts.trace = append(ts.trace, [3]int{0, i, j})
	return ts.u.Greater(i, j)
}

// TestMergeSortedTraceFixed: two secret-differing inputs with the same public
// run lengths must produce byte-identical compare/swap position sequences —
// the merge network's shape depends only on the lengths.
func TestMergeSortedTraceFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, runs := range [][]int{{5, 3}, {1, 1, 1}, {7, 0, 9, 2}, {13, 13, 13, 13}, {6, 11, 3, 8, 1}} {
		n := 0
		for _, r := range runs {
			n += r
		}
		var traces [][][3]int
		for trial := 0; trial < 3; trial++ {
			u := make(U64Slice, n)
			for i := range u {
				u[i] = rng.Uint64() % 64
			}
			sortRunsAscending(u, runs)
			ts := &mergeTraceSorter{u: u}
			MergeSorted(ts, runs)
			traces = append(traces, ts.trace)
		}
		for trial := 1; trial < len(traces); trial++ {
			if len(traces[trial]) != len(traces[0]) {
				t.Fatalf("runs=%v: trace length %d vs %d across secret inputs", runs, len(traces[trial]), len(traces[0]))
			}
			for i := range traces[0] {
				if traces[trial][i] != traces[0][i] {
					t.Fatalf("runs=%v: trace diverges at step %d: %v vs %v", runs, i, traces[trial][i], traces[0][i])
				}
			}
		}
	}
}

// TestMergeSortedCostAccounting pins the cost model to reality: the number of
// OSwap calls MergeSorted makes (one per compare-exchange, one per reversal
// swap) equals MergeSortedCost, the number of Greater calls Sort makes
// equals SortCost, and at >=4 equal runs merging is strictly cheaper than
// re-sorting — the tentpole's asymptotic claim, checked concretely.
func TestMergeSortedCostAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, runs := range [][]int{{100, 100}, {64, 64, 64, 64}, {33, 57, 12, 90, 41}} {
		n := 0
		for _, r := range runs {
			n += r
		}
		u := make(U64Slice, n)
		for i := range u {
			u[i] = rng.Uint64()
		}
		sortRunsAscending(u, runs)
		ts := &mergeTraceSorter{u: u}
		MergeSorted(ts, runs)
		got := 0
		for _, step := range ts.trace {
			if step[0] == 1 {
				got++
			}
		}
		if want := MergeSortedCost(runs); got != want {
			t.Errorf("runs=%v: %d row operations, MergeSortedCost says %d", runs, got, want)
		}
	}

	for _, n := range []int{0, 1, 2, 3, 5, 98, 127, 512, 845, 1000, 4097} {
		u := make(U64Slice, n)
		for i := range u {
			u[i] = rng.Uint64()
		}
		ts := &mergeTraceSorter{u: u}
		Sort(ts)
		got := 0
		for _, step := range ts.trace {
			if step[0] == 0 {
				got++
			}
		}
		if want := SortCost(n); got != want {
			t.Errorf("Sort(%d): %d compare-exchanges, SortCost says %d", n, got, want)
		}
	}

	for _, leaves := range []int{4, 8} {
		runs := make([]int, leaves)
		for i := range runs {
			runs[i] = 4096 / leaves
		}
		if m, s := MergeSortedCost(runs), SortCost(4096); m >= s {
			t.Errorf("%d runs of %d: merge cost %d not below sort cost %d", leaves, runs[0], m, s)
		}
	}
}

func TestMergeSortedPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		runs []int
	}{
		{"short", 4, []int{1, 2}},
		{"long", 4, []int{3, 3}},
		{"negative", 4, []int{5, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			MergeSorted(make(U64Slice, tc.n), tc.runs)
		})
	}
}
