package obliv

import (
	"math/rand"
	"testing"
)

// Ablation 1 (DESIGN.md §5): the compaction algorithm choice. Only Compact
// has production callers; the alternative lives here with its benchmark.

// CompactLogShift is an alternative order-preserving oblivious compaction
// kept for ablation benchmarks: Goodrich's log-shifting formulation. Each
// marked element must move left by d = i - rank(i) positions; d is routed
// one bit at a time over log n passes. Distances of kept elements are
// non-decreasing in i, which guarantees the passes never collide.
//
// It performs (n-2^k) conditional swaps in pass k — the same O(n log n)
// total as Compact — but with worse constants because it must route a
// per-element distance word alongside the payload.
func CompactLogShift(s Swapper, marks []uint8) {
	n := s.Len()
	if n != len(marks) {
		panic("obliv: CompactLogShift marks length mismatch")
	}
	if n < 2 {
		return
	}
	// dist[i] = how far the element currently at slot i still has to move
	// left; live[i] = whether slot i currently holds a marked element.
	// Both arrays are swapped alongside the payload, branch-free.
	dist := make([]uint64, n)
	live := make([]uint8, n)
	one := make([]uint8, 1) // its pairs overlap one another: each is a run of one
	rank := uint64(0)
	for i := 0; i < n; i++ {
		mi := marks[i]
		live[i] = mi
		// dist = i - rank if marked, else 0; computed branch-free.
		d := uint64(i) - rank
		dist[i] = Mask64(mi) & d
		rank += uint64(mi)
	}
	for k := 0; (1 << k) < n; k++ {
		step := 1 << k
		bit := uint64(step)
		for j := step; j < n; j++ {
			// Move the element at j left by step iff it is live and bit k
			// of its remaining distance is set.
			c := live[j] & uint8((dist[j]>>uint(k))&1)
			one[0] = c
			s.SwapRun(one, j-step, j)
			// Swap metadata with the same condition.
			CondSwapU64(c, &dist[j-step], &dist[j])
			SwapRunU8(one, live[j-step:], live[j:])
			// Clear the routed bit on the element now at j-step.
			CondSetU64(c, &dist[j-step], dist[j-step]&^bit)
		}
	}
}

// wideRows is a Swapper over rows the size of the data plane's: a key and a
// 160-byte value block.
type wideRows struct {
	key  []uint64
	data []byte
}

const wideBlock = 160

func (w wideRows) Len() int { return len(w.key) }

func (w wideRows) SwapRun(c []uint8, i, j int) {
	SwapRunU64(c, w.key[i:], w.key[j:])
	SwapRunBlocks(c, w.data[i*wideBlock:], w.data[j*wideBlock:], wideBlock)
}

func BenchmarkCompaction(b *testing.B) {
	const n = 1 << 14
	for _, alg := range []struct {
		name string
		f    func(Swapper, []uint8)
	}{
		{"ORCompact", Compact},
		{"LogShift", CompactLogShift},
	} {
		b.Run(alg.name, func(b *testing.B) {
			rows := wideRows{key: make([]uint64, n), data: make([]byte, n*wideBlock)}
			marks := make([]uint8, n)
			rng := rand.New(rand.NewSource(1))
			for i := range marks {
				marks[i] = uint8(rng.Intn(2))
			}
			m := make([]uint8, n)
			b.SetBytes(n * wideBlock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(m, marks)
				alg.f(rows, m)
			}
		})
	}
}
