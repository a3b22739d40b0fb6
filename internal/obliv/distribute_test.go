package obliv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// routed is the reference Router: values with their destinations alongside,
// recording every swap position.
type routed struct {
	val, tgt []uint64
	ops      []int64
}

func (r *routed) Len() int                    { return len(r.val) }
func (r *routed) Targets(dst []uint64, i int) { copy(dst, r.tgt[i:i+len(dst)]) }
func (r *routed) SwapRun(c []uint8, i, j int) {
	for t, ct := range c {
		r.ops = append(r.ops, int64(i+t)<<32|int64(j+t))
		CondSwapU64(ct, &r.val[i+t], &r.val[j+t])
		CondSwapU64(ct, &r.tgt[i+t], &r.tgt[j+t])
	}
}

const fillerBit = uint64(1) << 40

// frontLoaded builds Distribute's input for the destination set occ: the
// r-th front element is destined for the r-th occupied slot.
func frontLoaded(occ []bool) *routed {
	m := len(occ)
	r := &routed{val: make([]uint64, m), tgt: make([]uint64, m)}
	k := 0
	for slot, o := range occ {
		if o {
			r.val[k], r.tgt[k] = uint64(slot), uint64(slot)
			k++
		}
	}
	for i := k; i < m; i++ {
		r.val[i], r.tgt[i] = fillerBit|uint64(i), NoTarget // distinguishable
	}
	return r
}

// checkScatter compares Distribute with the plain scatter specification:
// slot j holds the element destined for it iff occ[j]; everything else is
// filler, each exactly once.
func checkScatter(t testing.TB, occ []bool) {
	t.Helper()
	r := frontLoaded(occ)
	Distribute(r)
	fillers := map[uint64]bool{}
	for j, o := range occ {
		switch {
		case o && (r.val[j] != uint64(j) || r.tgt[j] != uint64(j)):
			t.Fatalf("m=%d: slot %d holds (%#x→%d), want its own element", len(occ), j, r.val[j], r.tgt[j])
		case !o && (r.tgt[j] != NoTarget || r.val[j]&fillerBit == 0 || fillers[r.val[j]]):
			t.Fatalf("m=%d: free slot %d holds (%#x→%d), want a distinct filler", len(occ), j, r.val[j], r.tgt[j])
		}
		if !o {
			fillers[r.val[j]] = true
		}
	}
	if got, want := len(r.ops), CompactCost(len(occ)); got != want {
		t.Fatalf("m=%d: %d swaps, CompactCost says %d", len(occ), got, want)
	}
}

// Every destination set of every length up to 11: k = 0 … m inclusive,
// powers of two and not.
func TestDistributeExhaustiveSmall(t *testing.T) {
	for m := 0; m <= 11; m++ {
		occ := make([]bool, m)
		for set := 0; set < 1<<m; set++ {
			for j := range occ {
				occ[j] = set>>j&1 == 1
			}
			checkScatter(t, occ)
		}
	}
}

func TestDistributeQuick(t *testing.T) {
	f := func(occ []bool) bool { checkScatter(t, occ); return true }
	if err := quick.Check(f, &quick.Config{MaxCount: 400, MaxCountScale: 0}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{1000, 4096, 5428} {
		for _, density := range []float64{0, 0.03, 0.5, 1} {
			occ := make([]bool, m)
			for j := range occ {
				occ[j] = rng.Float64() < density
			}
			checkScatter(t, occ)
		}
	}
}

func FuzzDistributeMatchesScatter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0, 1, 1, 0})
	f.Add(bytes.Repeat([]byte{1}, 70))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 600 {
			raw = raw[:600]
		}
		occ := make([]bool, len(raw))
		for j, b := range raw {
			occ[j] = b&1 == 1
		}
		checkScatter(t, occ)
	})
}

// Distribute∘Compact is the identity on the marked elements: compacting
// them to the front and routing each back to where it came from.
func TestDistributeInvertsCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range []int{1, 2, 3, 64, 100, 845, 2541} {
		r := &routed{val: make([]uint64, m), tgt: make([]uint64, m)}
		marks := make([]uint8, m)
		for i := range r.val {
			r.val[i], r.tgt[i] = rng.Uint64(), NoTarget
			if marks[i] = uint8(rng.Intn(2)); marks[i] == 1 {
				r.tgt[i] = uint64(i)
			}
		}
		want := append([]uint64(nil), r.val...)
		Compact(r, marks)
		Distribute(r)
		for i := range want {
			if marks[i] == 1 && r.val[i] != want[i] {
				t.Fatalf("m=%d: marked element %d did not come back", m, i)
			}
		}
	}
}

// The swap position sequence is a function of Len() alone: destination
// sets of every density — secret in every caller — leave it unchanged.
func TestDistributeTraceOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{1, 2, 65, 512, 1000, 1696} {
		var ref []int64
		for trial := 0; trial < 6; trial++ {
			occ := make([]bool, m)
			for j := range occ {
				occ[j] = rng.Intn(6) < trial // trial 0: nothing to route
			}
			r := frontLoaded(occ)
			Distribute(r)
			if trial == 0 {
				ref = r.ops
				continue
			}
			if len(r.ops) != len(ref) {
				t.Fatalf("m=%d: trace length varies: %d vs %d", m, len(r.ops), len(ref))
			}
			for i := range ref {
				if ref[i] != r.ops[i] {
					t.Fatalf("m=%d: trace diverges at op %d", m, i)
				}
			}
		}
	}
}

func TestCompactCostCountsCompact(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 845, 1024, 5428} {
		ts := &traceSwapper{U64Slice: make(U64Slice, n)}
		Compact(ts, make([]uint8, n))
		if len(ts.ops) != CompactCost(n) {
			t.Fatalf("n=%d: Compact did %d swaps, CompactCost says %d", n, len(ts.ops), CompactCost(n))
		}
	}
}
