package suboram

import (
	"math/rand"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// TestBatchAccessZeroAllocSteadyState: with a warm arena, processing a
// batch — table build, linear scan, extraction in batch order (in-place
// tier compaction, tier-2 sort, merge), miss zeroing, key echo — performs
// zero heap allocations. Workers is pinned to 1; the parallel scan spawns
// goroutines, which allocate by nature.
func TestBatchAccessZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	const block = 32
	sub := New(Config{BlockSize: block, Workers: 1, Pool: pool})

	nObj := 512
	ids := make([]uint64, nObj)
	data := make([]byte, nObj*block)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*block] = byte(i)
	}
	if err := sub.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(53))
	reqs := store.NewRequests(64, block)
	perm := rng.Perm(nObj)
	for i := 0; i < reqs.Len(); i++ {
		key := uint64(perm[i])
		if i%4 == 3 {
			key += uint64(nObj) // absent: must come back zeroed
		}
		reqs.SetRow(i, uint8(i%2), key, 0, uint64(i), uint64(i), []byte{0xee})
	}
	sendable(reqs)

	out, err := sub.BatchAccess(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// What is measured below is the batch-order path: rows as sent,
	// echoing the key, misses zeroed.
	for i := 0; i < out.Len(); i++ {
		if out.Key[i] != reqs.Key[i] || out.KeyStamp(i) != testKey {
			t.Fatalf("row %d (key %d, stamp %v) is not the batch's row %d", i, out.Key[i], out.KeyStamp(i), i)
		}
		if absent := out.Key[i] >= uint64(nObj); absent != (out.Aux[i] == 0) || (absent && out.Block(i)[0] != 0) {
			t.Fatalf("row %d (key %d): aux=%d block[0]=%#x", i, out.Key[i], out.Aux[i], out.Block(i)[0])
		}
	}
	pool.PutRequests(out)

	allocs := testing.AllocsPerRun(20, func() {
		out, err := sub.BatchAccess(reqs)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(out)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("warm BatchAccess allocated %.1f times per run, want 0", allocs)
	}
}

// TestBatchAccessZeroAllocVaryingBatchSize: the open loop's case — the
// padded batch size moves from epoch to epoch against a fixed partition, and
// with it the table's shape. Once every size in the cycle has been seen (its
// geometry memoised, the scratch grown to the largest table), a cycle
// allocates nothing.
func TestBatchAccessZeroAllocVaryingBatchSize(t *testing.T) {
	pool := arena.NewPool()
	const block, nObj = 32, 2048
	sub := New(Config{BlockSize: block, Workers: 1, Pool: pool})
	ids := make([]uint64, nObj)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, make([]byte, nObj*block)); err != nil {
		t.Fatal(err)
	}
	var batches []*store.Requests
	shapes := map[[2]int]bool{}
	for _, alpha := range []int{122, 96, 131, 110, 64} {
		reqs := store.NewRequests(alpha, block)
		for i := 0; i < alpha; i++ {
			reqs.SetRow(i, uint8(i%2), uint64(i*7%nObj), 0, uint64(i), uint64(i), []byte{0xee})
		}
		batches = append(batches, sendable(reqs))
	}
	cycle := func() {
		for _, reqs := range batches {
			out, err := sub.BatchAccess(reqs)
			if err != nil {
				t.Fatal(err)
			}
			st := sub.LastStats()
			shapes[[2]int{st.TableSlots, st.SlotsPerLookup}] = true
			pool.PutRequests(out)
		}
	}
	cycle()
	if len(shapes) < 2 {
		t.Fatal("every batch size got the same table — the guard is vacuous")
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 && !raceEnabled {
		t.Fatalf("a warm cycle of varying batch sizes allocated %.1f times, want 0", allocs)
	}
}

// TestBatchAccessZeroAllocWithTelemetry: wiring a telemetry registry — with
// an access-trace sink attached, the worst case — must not reintroduce
// allocations into the warm batch path. Observing histograms, bumping
// counters, and recording stage timings are all allocation-free by design.
func TestBatchAccessZeroAllocWithTelemetry(t *testing.T) {
	pool := arena.NewPool()
	const block = 32
	reg := telemetry.NewRegistry()
	reg.SetTrace(telemetry.NewTraceSink())
	sub := New(Config{BlockSize: block, Workers: 1, Pool: pool, Telemetry: reg})

	nObj := 512
	ids := make([]uint64, nObj)
	data := make([]byte, nObj*block)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	reqs := store.NewRequests(64, block)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, store.OpRead, uint64(i), 0, uint64(i), uint64(i), nil)
	}
	sendable(reqs)
	out, err := sub.BatchAccess(reqs)
	if err != nil {
		t.Fatal(err)
	}
	pool.PutRequests(out)

	allocs := testing.AllocsPerRun(20, func() {
		out, err := sub.BatchAccess(reqs)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(out)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("instrumented warm BatchAccess allocated %.1f times per run, want 0", allocs)
	}
	if reg.Counter("suboram_batches_total").Value() == 0 {
		t.Fatal("telemetry not recording — guard is vacuous")
	}
}
