package obliv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCompact is the plain (non-oblivious) specification: marked elements
// first, original order preserved.
func refCompact(vals []uint64, marks []uint8) []uint64 {
	var out []uint64
	for i, v := range vals {
		if marks[i] == 1 {
			out = append(out, v)
		}
	}
	return out
}

func checkCompact(t *testing.T, name string, fn func(Swapper, []uint8), n int, rng *rand.Rand) {
	t.Helper()
	vals := make(U64Slice, n)
	marks := make([]uint8, n)
	for i := range vals {
		vals[i] = uint64(i) + 1000 // distinct, identifiable
		marks[i] = uint8(rng.Intn(2))
	}
	want := refCompact(vals, marks)
	got := append(U64Slice(nil), vals...)
	fn(got, append([]uint8(nil), marks...))
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("%s n=%d: slot %d = %d, want %d (marks=%v)", name, n, i, got[i], w, marks)
		}
	}
	// The unmarked elements must still all be present (it's a permutation).
	seen := map[uint64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("%s n=%d: duplicate value %d after compaction", name, n, v)
		}
		seen[v] = true
	}
}

func TestCompactAllSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 140; n++ {
		for trial := 0; trial < 6; trial++ {
			checkCompact(t, "Compact", Compact, n, rng)
		}
	}
}

func TestCompactLogShiftAllSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 140; n++ {
		for trial := 0; trial < 6; trial++ {
			checkCompact(t, "CompactLogShift", CompactLogShift, n, rng)
		}
	}
}

func TestCompactLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1000, 4096, 10000} {
		checkCompact(t, "Compact", Compact, n, rng)
		checkCompact(t, "CompactLogShift", CompactLogShift, n, rng)
	}
}

func TestCompactEdgeMarks(t *testing.T) {
	for _, n := range []int{1, 2, 8, 33} {
		allOn := make([]uint8, n)
		allOff := make([]uint8, n)
		vals := make(U64Slice, n)
		for i := range vals {
			vals[i] = uint64(i)
			allOn[i] = 1
		}
		v1 := append(U64Slice(nil), vals...)
		Compact(v1, append([]uint8(nil), allOn...))
		for i := range v1 {
			if v1[i] != uint64(i) {
				t.Fatalf("n=%d all-marked: order disturbed at %d", n, i)
			}
		}
		v2 := append(U64Slice(nil), vals...)
		Compact(v2, allOff) // must not panic; contents may permute
		_ = v2
	}
}

func TestCompactQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(raw []bool) bool {
		n := len(raw)
		vals := make(U64Slice, n)
		marks := make([]uint8, n)
		for i := range raw {
			vals[i] = rng.Uint64()
			if raw[i] {
				marks[i] = 1
			}
		}
		want := refCompact(vals, marks)
		got := append(U64Slice(nil), vals...)
		Compact(got, marks)
		for i, w := range want {
			if got[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// traceSwapper records swap positions to verify the compaction trace is a
// function of length only — not of the mark bits.
type traceSwapper struct {
	U64Slice
	ops []int64
}

func (ts *traceSwapper) SwapRun(c []uint8, i, j int) {
	for t := range c {
		ts.ops = append(ts.ops, int64(i+t)<<32|int64(j+t))
	}
	ts.U64Slice.SwapRun(c, i, j)
}

func TestCompactTraceOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, fn := range []struct {
		name string
		f    func(Swapper, []uint8)
	}{{"Compact", Compact}, {"CompactLogShift", CompactLogShift}} {
		for _, n := range []int{1, 2, 65, 512, 1000} {
			var ref []int64
			for trial := 0; trial < 4; trial++ {
				ts := &traceSwapper{U64Slice: randU64s(rng, n)}
				marks := make([]uint8, n)
				for i := range marks {
					marks[i] = uint8(rng.Intn(2))
				}
				fn.f(ts, marks)
				if trial == 0 {
					ref = ts.ops
					continue
				}
				if len(ts.ops) != len(ref) {
					t.Fatalf("%s n=%d: trace length varies: %d vs %d", fn.name, n, len(ts.ops), len(ref))
				}
				for i := range ref {
					if ref[i] != ts.ops[i] {
						t.Fatalf("%s n=%d: trace diverges at op %d", fn.name, n, i)
					}
				}
			}
		}
	}
}

func TestCompactMarksMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on marks length mismatch")
		}
	}()
	Compact(make(U64Slice, 4), make([]uint8, 3))
}
