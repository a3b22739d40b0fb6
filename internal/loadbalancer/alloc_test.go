package loadbalancer

import (
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// TestMakeBatchesZeroAllocSteadyState is the tentpole guard: with a warm
// arena, building an epoch's batches performs zero heap allocations.
// SortWorkers is pinned to 1 — parallel sort spawns goroutines, which
// allocate by nature and are outside the data-plane guarantee.
func TestMakeBatchesZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	lb := New(Config{BlockSize: 32, NumSubORAMs: 4, Lambda: 64, SortWorkers: 1, Pool: pool}, crypt.MustNewKey())

	rng := rand.New(rand.NewSource(50))
	reqs := store.NewRequests(256, 32)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, store.OpRead, rng.Uint64()%1000, 0, uint64(i), uint64(i), nil)
	}

	// Warm the pool: one full cycle populates every size class involved.
	b, err := lb.MakeBatches(reqs)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()

	allocs := testing.AllocsPerRun(50, func() {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("warm MakeBatches allocated %.1f times per run, want 0", allocs)
	}
}

// TestMatchResponsesZeroAllocSteadyState: the response-matching half of the
// epoch is equally allocation-free once warm — the narrow sort runs in the
// merge buffer's own request rows, so it needs no scratch at all — and so
// is a whole epoch of MakeBatches and Match.
func TestMatchResponsesZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	lb := New(Config{BlockSize: 32, NumSubORAMs: 2, Lambda: 64, SortWorkers: 1, Pool: pool}, crypt.MustNewKey())

	rng := rand.New(rand.NewSource(51))
	reqs := store.NewRequests(64, 32)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, store.OpRead, rng.Uint64()%40, 0, uint64(i), uint64(i), nil)
	}
	b, err := lb.MakeBatches(reqs)
	if err != nil {
		t.Fatal(err)
	}
	responses := store.NewRequests(b.All.Len(), 32)
	for p := 0; p < 2; p++ {
		responses.CopyRowsPlain(p*b.PerSub, answer(b.For(p)))
	}
	b.Release()

	m, err := lb.MatchResponses(responses, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Len(); i++ {
		if m.Key[i]%3 != 0 && m.Aux[i] != 1 { // answer() leaves every third key absent
			t.Fatalf("key %d unanswered — the guard would be measuring a mismatch", m.Key[i])
		}
	}
	pool.PutRequests(m)

	allocs := testing.AllocsPerRun(50, func() {
		m, err := lb.MatchResponses(responses, reqs)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(m)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("warm MatchResponses allocated %.1f times per run, want 0", allocs)
	}

	epoch := func() {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := lb.Match(b.Match, b.All) // the batches stand in for their responses
		b.Match = nil
		b.Release()
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(m)
	}
	epoch()
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 && !raceEnabled {
		t.Fatalf("warm MakeBatches+Match allocated %.1f times per run, want 0", allocs)
	}
}

// TestEpochZeroAllocWithTelemetry: both halves of the instrumented epoch —
// batch building and response matching — stay allocation-free with a
// telemetry registry (and its access-trace sink, the worst case) wired in.
func TestEpochZeroAllocWithTelemetry(t *testing.T) {
	pool := arena.NewPool()
	reg := telemetry.NewRegistry()
	reg.SetTrace(telemetry.NewTraceSink())
	lb := New(Config{
		BlockSize: 32, NumSubORAMs: 4, Lambda: 64, SortWorkers: 1,
		Pool: pool, Telemetry: reg,
	}, crypt.MustNewKey())

	rng := rand.New(rand.NewSource(54))
	reqs := store.NewRequests(256, 32)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, store.OpRead, rng.Uint64()%1000, 0, uint64(i), uint64(i), nil)
	}
	warm := func() {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		resp := b.All.Clone()
		b.Release()
		m, err := lb.MatchResponses(resp, reqs)
		pool.PutRequests(resp)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(m)
	}
	warm()

	allocs := testing.AllocsPerRun(50, func() {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("instrumented warm MakeBatches allocated %.1f times per run, want 0", allocs)
	}
	if reg.Counter("lb_batches_total").Value() == 0 {
		t.Fatal("telemetry not recording — guard is vacuous")
	}
}

// BenchmarkMakeBatches times a warm monolithic balancer at the benchmark
// ledger's four (R, S) shapes (batch_heavy, scan_heavy, remote_durable,
// open_mixed; 160 B values, λ = 128 → α = 845/128/512/120), so batch
// assembly's cost is reproducible with `go test -bench`.
func BenchmarkMakeBatches(b *testing.B) {
	for _, sh := range []struct{ r, s, keys int }{{2048, 4, 2048}, {128, 2, 1 << 16}, {512, 1, 1 << 13}, {120, 2, 1 << 12}} {
		b.Run(fmt.Sprintf("R=%d/S=%d", sh.r, sh.s), func(b *testing.B) {
			pool := arena.NewPool()
			lb := New(Config{BlockSize: 160, NumSubORAMs: sh.s, SortWorkers: 1, Pool: pool}, crypt.MustNewKey())
			rng := rand.New(rand.NewSource(55))
			reqs := store.NewRequests(sh.r, 160)
			for i := 0; i < sh.r; i++ {
				reqs.SetRow(i, uint8(rng.Intn(2)), uint64(rng.Intn(sh.keys)), 0, uint64(i), uint64(i), nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt, err := lb.MakeBatches(reqs)
				if err != nil {
					b.Fatal(err)
				}
				bt.Release()
			}
		})
	}
}

// BenchmarkMatchResponses is BenchmarkMakeBatches' counterpart at the same
// four ledger shapes, against responses in the order their batches went out
// (what subORAMs send). Beside ms/op it reports the row operations of one
// call: narrow ones (its own metadata sort, which Match does without) move a
// request's metadata only, wide ones a whole 160 B row.
func BenchmarkMatchResponses(b *testing.B) {
	for _, sh := range []struct{ r, s, keys int }{{2048, 4, 2048}, {128, 2, 1 << 16}, {512, 1, 1 << 13}, {120, 2, 1 << 12}} {
		b.Run(fmt.Sprintf("R=%d/S=%d", sh.r, sh.s), func(b *testing.B) {
			pool := arena.NewPool()
			lb := New(Config{BlockSize: 160, NumSubORAMs: sh.s, SortWorkers: 1, Pool: pool}, crypt.MustNewKey())
			rng := rand.New(rand.NewSource(56))
			reqs := store.NewRequests(sh.r, 160)
			for i := 0; i < sh.r; i++ {
				reqs.SetRow(i, uint8(rng.Intn(2)), uint64(rng.Intn(sh.keys)), 0, uint64(i), uint64(i), nil)
			}
			bt, err := lb.MakeBatches(reqs)
			if err != nil {
				b.Fatal(err)
			}
			alpha := bt.PerSub
			responses := store.NewRequests(alpha*sh.s, 160)
			for p := 0; p < sh.s; p++ {
				responses.CopyRowsPlain(p*alpha, answer(bt.For(p)))
			}
			bt.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := lb.MatchResponses(responses, reqs)
				if err != nil {
					b.Fatal(err)
				}
				pool.PutRequests(m)
			}
			narrow := obliv.SortCost(sh.r)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
			b.ReportMetric(float64(narrow), "narrow-ops")
			b.ReportMetric(float64(MatchResponsesCost(sh.r, sh.s, alpha)), "wide-ops")
		})
	}
}
