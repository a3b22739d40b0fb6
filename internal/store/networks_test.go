package store

import (
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/obliv"
)

// BenchmarkNetworks times every oblivious network at batch_heavy's shapes
// (R = 2048, S = 4, α = 845; 160 B value blocks) on each row-kernel body the
// host has, and reports ns per row operation — per compare-exchange or
// conditional swap, counted by the network's cost function.
func BenchmarkNetworks(b *testing.B) {
	const bs = 160
	merge := []int{2048, 3380}
	for _, nw := range []struct {
		name  string
		rows  int
		ops   int
		route bool // Sub holds destination slots, restored before each run
		run   func(r *Requests, marks []uint8)
	}{
		{"Sort/BySubKeyWriteSeq/n=2048", 2048, obliv.SortCost(2048), false,
			func(r *Requests, _ []uint8) { obliv.Sort(BySubKeyWriteSeq{r}) }},
		{"Sort/BySubKey/n=845", 845, obliv.SortCost(845), false,
			func(r *Requests, _ []uint8) { obliv.Sort(BySubKey{r}) }},
		{"Sort/MetaBySubKey/n=2048", 2048, obliv.SortCost(2048), false,
			func(r *Requests, _ []uint8) { obliv.Sort(MetaBySubKey{r}) }},
		{"Compact/n=2048", 2048, obliv.CompactCost(2048), false,
			func(r *Requests, marks []uint8) { obliv.Compact(r, marks) }},
		{"Distribute/n=3380", 3380, obliv.DistributeCost(3380), true,
			func(r *Requests, _ []uint8) { obliv.Distribute(BySlot{r}) }},
		{"MergeSorted/BySubKeyTag/runs=2048+3380", 5428, obliv.MergeSortedCost(merge), false,
			func(r *Requests, _ []uint8) { obliv.MergeSorted(BySubKeyTag{r}, merge) }},
	} {
		for _, body := range obliv.Kernels() {
			b.Run(fmt.Sprintf("%s/%s", nw.name, body), func(b *testing.B) {
				defer obliv.UseRowKernel(body)()
				rng := rand.New(rand.NewSource(1))
				r := NewRequests(nw.rows, bs)
				marks := make([]uint8, nw.rows)
				for i := range r.Key {
					r.SetRow(i, uint8(rng.Intn(2)), uint64(rng.Intn(nw.rows)), uint32(rng.Intn(4)), uint64(i), uint64(i), nil)
					r.Tag[i] = uint8(rng.Intn(2))
					marks[i] = uint8(rng.Intn(2))
				}
				slots := make([]uint32, nw.rows) // 2048 kept rows' slots+1, front-loaded
				for i, k := 0, 0; nw.route && i < nw.rows; i++ {
					slots[i] = 0
					if k < 2048 && rng.Intn(nw.rows-i) < 2048-k {
						slots[k], k = uint32(i)+1, k+1
					}
				}
				m := make([]uint8, nw.rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(m, marks)
					if nw.route {
						copy(r.Sub, slots)
					}
					nw.run(r, m)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nw.ops), "ns/rowop")
			})
		}
	}
}
