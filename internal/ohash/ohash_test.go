package ohash

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/store"
)

// makeBatch returns n distinct keys as a load balancer sends them: stamped
// with a table key drawn from rng and in that key's table order.
func makeBatch(rng *rand.Rand, n, block int) *store.Requests {
	reqs := store.NewRequests(n, block)
	perm := rng.Perm(n * 10)
	for i := 0; i < n; i++ {
		op := store.OpRead
		if rng.Intn(2) == 0 {
			op = store.OpWrite
		}
		reqs.SetRow(i, op, uint64(perm[i]), 0, uint64(i), uint64(i), []byte{byte(i)})
	}
	Order(reqs, crypt.SipKey{rng.Uint64() | 1, rng.Uint64()})
	return reqs
}

// ordered returns a copy of reqs stamped with k and in its table order.
func ordered(reqs *store.Requests, k crypt.SipKey) *store.Requests {
	c := reqs.Clone()
	Order(c, k)
	return c
}

// build builds a batch in table order with a fresh Builder.
func build(reqs *store.Requests, p Params) (*Table, error) { return NewBuilder(p).Build(reqs) }

// bucketRows returns the row ranges of the two buckets a lookup of id scans.
func bucketRows(t *Table, id uint64) (lo1, hi1, lo2, hi2 int) {
	var b1, b2 [1]uint32
	t.Buckets([]uint64{id}, b1[:], b2[:])
	g := t.Geom
	return int(b1[0]) * g.Z1, int(b1[0]+1) * g.Z1, int(b2[0]) * g.Z2, int(b2[0]+1) * g.Z2
}

// findKey scans the buckets for key and returns how many occupied slots
// match, plus the location of the first match.
func findKey(t *Table, key uint64) (count int, tier, slot int) {
	lo1, hi1, lo2, hi2 := bucketRows(t, key)
	for s := lo1; s < hi1; s++ {
		if t.Tier1.Tag[s] == 1 && t.Tier1.Key[s] == key {
			count++
			tier, slot = 1, s
		}
	}
	for s := lo2; s < hi2; s++ {
		if t.Tier2.Tag[s] == 1 && t.Tier2.Key[s] == key {
			count++
			tier, slot = 2, s
		}
	}
	return
}

func TestBuildAndLookupAllKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 5, 64, 512, 1500} {
		reqs := makeBatch(rng, n, 16)
		tbl, err := build(reqs, DefaultParams())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			c, _, _ := findKey(tbl, reqs.Key[i])
			if c != 1 {
				t.Fatalf("n=%d: key %d found %d times, want 1", n, reqs.Key[i], c)
			}
		}
	}
}

func TestBuildPreservesRecordFields(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	reqs := makeBatch(rng, 200, 16)
	tbl, err := build(reqs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reqs.Len(); i++ {
		_, tier, slot := findKey(tbl, reqs.Key[i])
		var tr *store.Requests
		if tier == 1 {
			tr = tbl.Tier1
		} else {
			tr = tbl.Tier2
		}
		if tr.Op[slot] != reqs.Op[i] || tr.Seq[slot] != reqs.Seq[i] ||
			tr.Client[slot] != reqs.Client[i] || tr.Block(slot)[0] != reqs.Block(i)[0] {
			t.Fatalf("record %d fields mangled in table", i)
		}
	}
}

func TestBuildManySeedsNoOverflow(t *testing.T) {
	// The negligible-overflow claim, empirically: many batches at the
	// default geometry must all place.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		n := 100 + rng.Intn(2000)
		reqs := makeBatch(rng, n, 8)
		if _, err := build(reqs, DefaultParams()); err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
	}
}

func TestBuildWithLoadBalancerDummies(t *testing.T) {
	// LB dummy keys (DummyKeyBit set, TableDummyBit clear) trail the real
	// rows and never enter the table: the real keys are found once, the
	// dummies not at all, and Extract answers them with vacant rows.
	reqs := store.NewRequests(100, 8)
	for i := 0; i < 50; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i), 0, 0, 0, nil)
	}
	for i := 50; i < 100; i++ {
		reqs.SetRow(i, store.OpRead, store.DummyKeyBit|uint64(i), 0, 0, 0, nil)
	}
	Order(reqs, crypt.SipKey{3, 4})
	tbl, err := build(reqs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := 1 - int(store.DummyMark(reqs.Key[i]))
		if c, _, _ := findKey(tbl, reqs.Key[i]); c != want {
			t.Fatalf("key %x found %d times, want %d", reqs.Key[i], c, want)
		}
	}
	out := tbl.Extract()
	for i := 0; i < out.Len(); i++ {
		if vacant := out.Tag[i] == 0; vacant != (i >= 50) || out.Key[i] != reqs.Key[i] && !vacant {
			t.Fatalf("extracted row %d: key %x tag %d; want the batch's real rows, then vacant rows", i, out.Key[i], out.Tag[i])
		}
	}
}

// TestBuildRefusesMisorderedBatch is the order check's negative control: a
// batch with two real rows swapped, a real row after a dummy, rows under
// two keys, or no key at all is refused, by Build and by the delivery gate
// (CheckDelivery) alike; the batch as sent passes both.
func TestBuildRefusesMisorderedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	k := crypt.SipKey{7, 8}
	base := store.NewRequests(64, 8)
	for i := 0; i < 64; i++ {
		key := uint64(rng.Intn(1 << 20))
		if i >= 48 {
			key = store.DummyKeyBit | uint64(i)
		}
		base.SetRow(i, store.OpRead, key, 0, 0, 0, nil)
	}
	Order(base, k)
	b := NewBuilder(DefaultParams())
	if _, err := b.Build(base); err != nil {
		t.Fatalf("the batch as sent: %v", err)
	}
	if err := CheckDelivery(8, []*store.Requests{base}); err != nil {
		t.Fatalf("the batch as sent: CheckDelivery says %v", err)
	}
	swap := func(r *store.Requests, i, j int) {
		tmp := r.Clone()
		r.CopyRowPlain(i, tmp, j)
		r.CopyRowPlain(j, tmp, i)
	}
	for _, c := range []struct {
		name string
		mend func(r *store.Requests)
	}{
		{"two real rows swapped", func(r *store.Requests) { swap(r, 10, 11) }},
		{"first and last real row swapped", func(r *store.Requests) { swap(r, 0, 47) }},
		{"a real row after a dummy", func(r *store.Requests) { swap(r, 47, 48) }},
		{"a row under another key", func(r *store.Requests) { r.Client[20]++ }},
		{"no key", func(r *store.Requests) { r.StampKey([2]uint64{}) }},
	} {
		r := base.Clone()
		c.mend(r)
		if _, err := b.Build(r); !errors.Is(err, ErrOrder) {
			t.Fatalf("%s: Build says %v, want ErrOrder", c.name, err)
		}
		if err := CheckDelivery(8, []*store.Requests{base, r}); !errors.Is(err, ErrOrder) {
			t.Fatalf("%s: CheckDelivery says %v, want ErrOrder", c.name, err)
		}
	}
}

// TestCheckDelivery is the gate's own negative control for what is not a
// batch's order: a delivery with no batches, an empty batch, or a batch of
// another block size than the partition's is refused, wherever in the
// delivery it comes; a delivery it accepts allocates nothing.
func TestCheckDelivery(t *testing.T) {
	batch := func(rows, blockSize int) *store.Requests {
		r := store.NewRequests(rows, blockSize)
		for i := 0; i < rows; i++ {
			r.SetRow(i, store.OpRead, uint64(3*i+1), 0, 0, 0, nil)
		}
		Order(r, crypt.SipKey{7, 8})
		return r
	}
	good := []*store.Requests{batch(5, 16), batch(1, 16), batch(33, 16)}
	if err := CheckDelivery(16, good); err != nil {
		t.Fatalf("a well-formed delivery: %v", err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := CheckDelivery(16, good); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 && !raceEnabled {
		t.Fatalf("CheckDelivery allocates %.1f times on a delivery it accepts", allocs)
	}
	for _, c := range []struct {
		name    string
		batches []*store.Requests
		want    string
	}{
		{"no batches", nil, "needs a batch"},
		{"an empty batch", []*store.Requests{good[0], store.NewRequests(0, 16)}, "empty batch"},
		{"a wider batch", []*store.Requests{good[0], batch(2, 32)}, "block size 32 != the partition's 16"},
		{"a narrower first batch", []*store.Requests{batch(2, 8), good[1]}, "block size 8 != the partition's 16"},
	} {
		if err := CheckDelivery(16, c.batches); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: CheckDelivery says %v, want %q", c.name, err, c.want)
		}
	}
}

func TestExtractRecoversBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reqs := makeBatch(rng, 300, 16)
	tbl, err := build(reqs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Extract()
	if out.Len() != reqs.Len() {
		t.Fatalf("Extract returned %d rows, want %d", out.Len(), reqs.Len())
	}
	want := map[uint64]uint64{}
	for i := 0; i < reqs.Len(); i++ {
		want[reqs.Key[i]] = reqs.Seq[i]
	}
	for i := 0; i < out.Len(); i++ {
		seq, ok := want[out.Key[i]]
		if !ok || seq != out.Seq[i] {
			t.Fatalf("extracted row %d (key %d) unknown or mangled", i, out.Key[i])
		}
		delete(want, out.Key[i])
	}
	if len(want) != 0 {
		t.Fatalf("%d batch rows missing from extraction", len(want))
	}
}

func TestBuildEmptyBatchErrors(t *testing.T) {
	if _, err := build(store.NewRequests(0, 8), DefaultParams()); err == nil {
		t.Fatal("empty batch should error")
	}
}

func TestBucketsInRange(t *testing.T) {
	reqs := makeBatch(rand.New(rand.NewSource(24)), 128, 8)
	tbl, err := build(reqs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 1000; id++ {
		lo1, hi1, lo2, hi2 := bucketRows(tbl, id)
		if lo1 < 0 || hi1 > tbl.Tier1.Len() || hi1-lo1 != tbl.Geom.Z1 {
			t.Fatalf("tier-1 bucket range bad: [%d,%d)", lo1, hi1)
		}
		if lo2 < 0 || hi2 > tbl.Tier2.Len() || hi2-lo2 != tbl.Geom.Z2 {
			t.Fatalf("tier-2 bucket range bad: [%d,%d)", lo2, hi2)
		}
	}
}

func TestSingleTierQuadraticCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 10, 200} {
		reqs := makeBatch(rng, n, 8)
		tbl, err := BuildSingleTierQuadratic(reqs, 64)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			lo, hi := tbl.Bucket(reqs.Key[i])
			count := 0
			for s := lo; s < hi; s++ {
				if tbl.Rows.Tag[s] == 1 && tbl.Rows.Key[s] == reqs.Key[i] {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("n=%d: key %d found %d times", n, reqs.Key[i], count)
			}
		}
	}
}

// TestTwoTierConstructionBeatsQuadratic reproduces the §5 claim that the
// two-tier construction is concretely faster at realistic batch sizes.
func TestTwoTierConstructionBeatsQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	rng := rand.New(rand.NewSource(26))
	const n = 1024
	reqs := makeBatch(rng, n, 32)

	start := time.Now()
	if _, err := build(reqs, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	twoTier := time.Since(start)

	start = time.Now()
	if _, err := BuildSingleTierQuadratic(reqs, 128); err != nil {
		t.Fatal(err)
	}
	quadratic := time.Since(start)

	if quadratic < twoTier {
		t.Fatalf("quadratic construction (%v) beat two-tier (%v) at n=%d — ablation claim broken",
			quadratic, twoTier, n)
	}
	t.Logf("n=%d: two-tier %v vs quadratic %v (%.1fx)", n, twoTier, quadratic,
		float64(quadratic)/float64(twoTier))
}

// TestBuilderMatchesBuild: the buffer-reusing Builder must produce tables
// equivalent to the allocating path, across repeated batches of varying
// sizes (exercising scratch reuse and resizing).
func TestBuilderMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	b := NewBuilder(DefaultParams())
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(800)
		reqs := makeBatch(rng, n, 16)
		tbl, err := b.Build(reqs)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		for i := 0; i < n; i++ {
			c, tier, slot := findKey(tbl, reqs.Key[i])
			if c != 1 {
				t.Fatalf("trial %d n=%d: key %d found %d times", trial, n, reqs.Key[i], c)
			}
			tr := tbl.Tier1
			if tier == 2 {
				tr = tbl.Tier2
			}
			if tr.Seq[slot] != reqs.Seq[i] {
				t.Fatalf("trial %d: record fields mangled", trial)
			}
		}
		// The extracted batch must round-trip too.
		out := tbl.Extract()
		if out.Len() != n {
			t.Fatalf("trial %d: extract %d != %d", trial, out.Len(), n)
		}
	}
}

// TestBuilderExtractSurvivesRebuild: a Builder's table storage is reused by
// the next Build (that is the zero-allocation contract), but the Extract
// result is independently pooled — it must stay intact across later Builds.
func TestBuilderExtractSurvivesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	b := NewBuilder(DefaultParams())
	reqs1 := makeBatch(rng, 100, 8)
	t1, err := b.Build(reqs1)
	if err != nil {
		t.Fatal(err)
	}
	out := t1.Extract()
	snapshot := append([]uint64(nil), out.Key...)
	reqs2 := makeBatch(rng, 100, 8)
	if _, err := b.Build(reqs2); err != nil {
		t.Fatal(err)
	}
	for i, k := range snapshot {
		if out.Key[i] != k {
			t.Fatal("second Build mutated the first extracted batch")
		}
	}
	// The extracted rows are exactly the original batch keys.
	want := make(map[uint64]bool, reqs1.Len())
	for i := 0; i < reqs1.Len(); i++ {
		want[reqs1.Key[i]] = true
	}
	for i := 0; i < out.Len(); i++ {
		if !want[out.Key[i]] {
			t.Fatalf("extracted key %d not in original batch", out.Key[i])
		}
	}
}
