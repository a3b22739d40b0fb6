package obliv

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// traceSorter wraps a Sorter, recording the (i, j) positions of every
// compare-exchange. Conditions are deliberately not recorded: they are
// secret. Two runs over same-length inputs must produce identical traces.
type traceSorter struct {
	Sorter
	ops []int64
}

func (ts *traceSorter) SwapRun(c []uint8, i, j int) {
	for t := range c {
		ts.ops = append(ts.ops, int64(i+t)<<32|int64(j+t))
	}
	ts.Sorter.SwapRun(c, i, j)
}

func randU64s(rng *rand.Rand, n int) U64Slice {
	u := make(U64Slice, n)
	for i := range u {
		u[i] = uint64(rng.Intn(max(1, n/2))) // duplicates likely
	}
	return u
}

func isSortedU64(u U64Slice) bool {
	return sort.SliceIsSorted(u, func(i, j int) bool { return u[i] < u[j] })
}

func TestSortAllSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 4; trial++ {
			u := randU64s(rng, n)
			Sort(u)
			if !isSortedU64(u) {
				t.Fatalf("n=%d trial=%d: not sorted: %v", n, trial, u)
			}
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := randU64s(rng, 777)
	counts := map[uint64]int{}
	for _, v := range u {
		counts[v]++
	}
	Sort(u)
	for _, v := range u {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("multiset changed for key %d: delta %d", k, c)
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		u := U64Slice(append([]uint64(nil), vals...))
		Sort(u)
		return isSortedU64(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 100, 1000, 4096, 5000} {
		for _, workers := range []int{1, 2, 3, 8} {
			a := randU64s(rng, n)
			b := append(U64Slice(nil), a...)
			Sort(a)
			SortParallel(b, workers)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d workers=%d: mismatch at %d", n, workers, i)
				}
			}
		}
	}
}

func TestSortAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10, adaptiveThreshold - 1, adaptiveThreshold + 1} {
		u := randU64s(rng, n)
		SortAdaptive(u, 0)
		if !isSortedU64(u) {
			t.Fatalf("n=%d: SortAdaptive failed", n)
		}
	}
}

// TestSortTraceOblivious verifies the central security property: the
// compare-exchange position sequence depends only on the input length.
func TestSortTraceOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 33, 128, 1000} {
		var ref []int64
		for trial := 0; trial < 3; trial++ {
			ts := &traceSorter{Sorter: randU64s(rng, n)}
			Sort(ts)
			if trial == 0 {
				ref = ts.ops
				continue
			}
			if len(ts.ops) != len(ref) {
				t.Fatalf("n=%d: trace length varies with data: %d vs %d", n, len(ts.ops), len(ref))
			}
			for i := range ref {
				if ref[i] != ts.ops[i] {
					t.Fatalf("n=%d: trace diverges at op %d", n, i)
				}
			}
		}
	}
}

func TestSortDescendingKeysWithTiebreak(t *testing.T) {
	// A Sorter with a composite ordering: primary key ascending, sequence
	// descending — the shape the load balancer uses for last-write-wins.
	recs := []rec{{3, 1}, {1, 2}, {3, 9}, {1, 1}, {2, 5}, {3, 4}}
	s := &recSorter{recs}
	Sort(s)
	want := []rec{{1, 2}, {1, 1}, {2, 5}, {3, 9}, {3, 4}, {3, 1}}
	for i, w := range want {
		if recs[i] != w {
			t.Fatalf("at %d: got %+v want %+v (full: %+v)", i, recs[i], w, recs)
		}
	}
}

type rec struct{ key, seq uint64 }

type recSorter struct {
	r []rec
}

func (s *recSorter) Len() int { return len(s.r) }

func (s *recSorter) SwapRun(c []uint8, i, j int) {
	for t, ct := range c {
		CondSwapU64(ct, &s.r[i+t].key, &s.r[j+t].key)
		CondSwapU64(ct, &s.r[i+t].seq, &s.r[j+t].seq)
	}
}

func (s *recSorter) GreaterRun(g []uint8, i, j int) {
	for t := range g {
		a, b := s.r[i+t], s.r[j+t]
		g[t] = Or(GtU64(a.key, b.key), And(EqU64(a.key, b.key), LtU64(a.seq, b.seq)))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
