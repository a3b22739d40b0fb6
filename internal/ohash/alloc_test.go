package ohash

import (
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/store"
)

// TestBuilderBuildZeroAllocSteadyState is the tentpole guard for the hash
// table: once the Builder's scratch, tiers, and the arena are warm, a
// steady-state Build performs zero heap allocations.
func TestBuilderBuildZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	p := DefaultParams()
	p.Pool = pool
	b := NewBuilder(p)

	rng := rand.New(rand.NewSource(51))
	reqs := makeBatch(rng, 512, 32)

	if _, err := b.Build(reqs); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.Build(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("warm Builder.Build allocated %.1f times per run, want 0", allocs)
	}
}

// TestBuildExtractCycleZeroAllocSteadyState extends the guard through
// Extract — the full per-batch subORAM table lifecycle.
func TestBuildExtractCycleZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	p := DefaultParams()
	p.Pool = pool
	b := NewBuilder(p)

	rng := rand.New(rand.NewSource(52))
	reqs := makeBatch(rng, 256, 16)

	tbl, err := b.Build(reqs)
	if err != nil {
		t.Fatal(err)
	}
	pool.PutRequests(tbl.Extract())

	allocs := testing.AllocsPerRun(50, func() {
		tbl, err := b.Build(reqs)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(tbl.Extract())
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("warm Build+Extract allocated %.1f times per run, want 0", allocs)
	}
}

// TestBuilderZeroAllocAcrossBatchSizes: the guarantee must survive a batch
// size that changes from epoch to epoch (every ticker-driven deployment) —
// the Builder's scratch only grows, so once the largest size has been seen
// alternating sizes allocate nothing.
func TestBuilderZeroAllocAcrossBatchSizes(t *testing.T) {
	pool := arena.NewPool()
	p := DefaultParams()
	p.Pool = pool
	b := NewBuilder(p)

	rng := rand.New(rand.NewSource(53))
	small, large := makeBatch(rng, 120, 32), makeBatch(rng, 845, 32)
	cycle := func() {
		for _, reqs := range []*store.Requests{large, small} {
			tbl, err := b.Build(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Geom.N != reqs.Len() {
				t.Fatalf("table for %d rows, batch has %d", tbl.Geom.N, reqs.Len())
			}
			pool.PutRequests(tbl.Extract())
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 && !raceEnabled {
		t.Fatalf("alternating batch sizes allocated %.1f times per cycle, want 0", allocs)
	}
}

// BenchmarkBuild times a warm Builder at the benchmark ledger's four batch
// sizes (α of batch_heavy, scan_heavy, remote_durable, open_mixed; 160 B
// values), so the construction's cost is reproducible with `go test -bench`.
func BenchmarkBuild(b *testing.B) {
	for _, alpha := range []int{845, 128, 512, 120} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			p := DefaultParams()
			p.Pool = arena.NewPool()
			bld := NewBuilder(p)
			reqs := makeBatch(rand.New(rand.NewSource(54)), alpha, 160)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bld.Build(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
