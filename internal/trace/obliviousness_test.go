// Package trace_test holds the system-level obliviousness tests: for fixed
// public parameters, the full access trace of the load balancer's epoch
// processing and the subORAM's batch processing must be bit-identical no
// matter what the requests contain — the executable form of the paper's
// simulation proofs (Theorems 1 and 2).
package trace_test

import (
	"math/rand"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
)

const block = 16

// randomRequests builds n requests with random keys/ops/payloads, including
// duplicate keys with probability ~1/3.
func randomRequests(rng *rand.Rand, n int) *store.Requests {
	reqs := store.NewRequests(n, block)
	var last uint64
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(1 << 20))
		if i > 0 && rng.Intn(3) == 0 {
			key = last // force duplicates
		}
		last = key
		op := store.OpRead
		data := []byte(nil)
		if rng.Intn(2) == 0 {
			op = store.OpWrite
			data = []byte{byte(rng.Intn(256))}
		}
		reqs.SetRow(i, op, key, 0, uint64(i), uint64(i), data)
		if rng.Intn(4) == 0 {
			reqs.Op[i] = store.OpWrite // extra op skew
		}
	}
	return reqs
}

// distinctRequests builds n requests with distinct random keys (subORAM
// precondition, paper Definition 2).
func distinctRequests(rng *rand.Rand, n int) *store.Requests {
	reqs := store.NewRequests(n, block)
	perm := rng.Perm(n * 8)
	for i := 0; i < n; i++ {
		op := store.OpRead
		if rng.Intn(2) == 0 {
			op = store.OpWrite
		}
		reqs.SetRow(i, op, uint64(perm[i]), 0, uint64(i), uint64(i), []byte{byte(i)})
	}
	return reqs
}

func TestLoadBalancerEpochTraceIndependentOfRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	key := crypt.MustNewKey()
	const n, s = 200, 4

	var ref *trace.Recorder
	var refBatchRows int
	for trial := 0; trial < 4; trial++ {
		rec := trace.New()
		lb := loadbalancer.New(loadbalancer.Config{
			BlockSize: block, NumSubORAMs: s, Lambda: 32, SortWorkers: 1, Rec: rec,
		}, key)
		reqs := randomRequests(rng, n)
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate responses (the subORAM trace is tested separately): echo
		// the batches back. Sizes are public, so this keeps the match-phase
		// input shape fixed.
		resp := b.All.Clone()
		if _, err := lb.MatchResponses(resp, reqs); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = rec
			refBatchRows = b.All.Len()
			continue
		}
		if b.All.Len() != refBatchRows {
			t.Fatalf("public batch shape varied: %d vs %d", b.All.Len(), refBatchRows)
		}
		if !trace.Equal(ref, rec) {
			t.Fatalf("trial %d: load balancer trace depends on request contents "+
				"(%d vs %d events)", trial, rec.Count(), ref.Count())
		}
	}
	if ref.Count() == 0 {
		t.Fatal("recorder captured nothing — instrumentation broken")
	}
}

func TestLoadBalancerTraceIndependentOfHashKey(t *testing.T) {
	// Routing key changes where requests go, but not the access trace.
	rng := rand.New(rand.NewSource(51))
	reqs := randomRequests(rng, 150)
	var ref *trace.Recorder
	for trial := 0; trial < 3; trial++ {
		rec := trace.New()
		lb := loadbalancer.New(loadbalancer.Config{
			BlockSize: block, NumSubORAMs: 3, Lambda: 32, SortWorkers: 1, Rec: rec,
		}, crypt.MustNewKey())
		if _, err := lb.MakeBatches(reqs); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = rec
			continue
		}
		if !trace.Equal(ref, rec) {
			t.Fatal("trace depends on the routing key")
		}
	}
}

func TestSubORAMTraceIndependentOfBatchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const nObjects, batchN = 300, 64

	ids := make([]uint64, nObjects)
	data := make([]byte, nObjects*block)
	for i := range ids {
		ids[i] = uint64(1<<21) + uint64(i)
	}
	key := crypt.MustNewSipKey()

	var ref *trace.Recorder
	for trial := 0; trial < 4; trial++ {
		rec := trace.New()
		s := suboram.New(suboram.Config{
			BlockSize: block, Workers: 1, Rec: rec,
		})
		if err := s.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		// Different distinct request sets, same public size. Some keys hit
		// stored objects, some miss; ops vary.
		reqs := distinctRequests(rng, batchN)
		for i := 0; i < batchN; i += 2 {
			reqs.Key[i] = ids[rng.Intn(nObjects)] // ensure hits, distinct? may collide
		}
		dedup(reqs)
		ohash.Order(reqs, key) // the key held equal across the trials
		if _, err := s.BatchAccess(reqs); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = rec
			continue
		}
		if !trace.Equal(ref, rec) {
			t.Fatalf("trial %d: subORAM trace depends on batch contents "+
				"(%d vs %d events)", trial, rec.Count(), ref.Count())
		}
	}
	if ref.Count() == 0 {
		t.Fatal("recorder captured nothing — instrumentation broken")
	}
}

// dedup rewrites any duplicate keys to fresh distinct ones (plain code —
// test setup only).
func dedup(reqs *store.Requests) {
	seen := map[uint64]bool{}
	next := uint64(1 << 30)
	for i := 0; i < reqs.Len(); i++ {
		for seen[reqs.Key[i]] {
			reqs.Key[i] = next
			next++
		}
		seen[reqs.Key[i]] = true
	}
}

func TestRecorderBasics(t *testing.T) {
	a, b := trace.New(), trace.New()
	if !trace.Equal(a, b) {
		t.Fatal("empty recorders should be equal")
	}
	a.Record(trace.KindSwap, 1, 2)
	if trace.Equal(a, b) {
		t.Fatal("different traces compared equal")
	}
	b.Record(trace.KindSwap, 1, 2)
	if !trace.Equal(a, b) {
		t.Fatal("same traces compared unequal")
	}
	b.Record(trace.KindSwap, 2, 1)
	a.Record(trace.KindSwap, 1, 2)
	if trace.Equal(a, b) {
		t.Fatal("order/position must matter")
	}
	var nilRec *trace.Recorder
	nilRec.Record(trace.KindTouch, 0, 0) // must not panic
	if nilRec.Count() != 0 {
		t.Fatal("nil recorder should count zero")
	}
}

// TestPartitionObliviousTrace: the Fig. 23 oblivious initialization must
// produce identical sort traces for different object sets of equal size.
func TestPartitionObliviousTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 200
	var ref *trace.Recorder
	for trial := 0; trial < 3; trial++ {
		rec := trace.New()
		lb := loadbalancer.New(loadbalancer.Config{
			BlockSize: block, NumSubORAMs: 4, Lambda: 32, SortWorkers: 1, Rec: rec,
		}, crypt.MustNewKey())
		ids := make([]uint64, n)
		perm := rng.Perm(n * 10)
		for i := range ids {
			ids[i] = uint64(perm[i])
		}
		data := make([]byte, n*block)
		rng.Read(data)
		if _, _, err := lb.PartitionOblivious(ids, data); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = rec
			continue
		}
		if !trace.Equal(ref, rec) {
			t.Fatal("oblivious partition trace depends on object contents")
		}
	}
	if ref.Count() == 0 {
		t.Fatal("no trace recorded")
	}
}
