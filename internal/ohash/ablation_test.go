package ohash

// The single-tier hash table the paper contrasts the two-tier design with
// (§5), and the ablation benchmarks that reproduce both of its claims: the
// two-tier construction is concretely faster, and its buckets are smaller.
// Only the comparison uses it, so it lives beside it.

import (
	"fmt"
	"math"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
)

// singleTierBucket returns the bucket size a *single*-tier oblivious hash
// table would need for n elements at mean load 2 with overflow probability
// at most 2^-lambda — the comparison point for the paper's claim that
// two-tier buckets are ~10× smaller (§5). It is sized by the same exact
// binomial tail as the two-tier table's tier 2, so the comparison is like
// with like.
func singleTierBucket(n, lambda int) int {
	return tier2Bucket(n, buckets(n, 1), float64(lambda)*math.Ln2)
}

// SingleTierTable is the Signal-contact-discovery-style oblivious hash
// table the paper contrasts with (§5): one tier whose construction places
// every request with a quadratic oblivious pass — "their hash table
// construction takes O(n²) time for n contacts ... prohibitively expensive
// for batches with thousands of requests" — and whose buckets must be
// sized for negligible overflow on their own, making them ~10× larger
// than the two-tier design's. Kept for the ablation benchmarks that
// reproduce both claims.
type SingleTierTable struct {
	B, Z int
	K    crypt.SipKey
	Rows *store.Requests // B × Z, bucket-major; Tag = occupancy
}

// BuildSingleTierQuadratic constructs the table with the quadratic
// oblivious placement: for every bucket slot, a full pass over the batch
// conditionally moves the next matching request in. Total work Θ(B·Z·n).
func BuildSingleTierQuadratic(reqs *store.Requests, lambda int) (*SingleTierTable, error) {
	n := reqs.Len()
	if n == 0 {
		return nil, fmt.Errorf("ohash: empty batch")
	}
	// Mean load 2 with λ-negligible overflow, the single-tier sizing the
	// bucket-size comparison uses.
	b := buckets(n, 1)
	z := singleTierBucket(n, lambda)
	t := &SingleTierTable{B: b, Z: z, K: crypt.MustNewSipKey()}
	t.Rows = store.NewRequests(b*z, reqs.BlockSize)
	for i := 0; i < t.Rows.Len(); i++ {
		t.Rows.Key[i] = padKey(uint64(1<<42) + uint64(i))
	}

	// Work over a consumable copy of the batch: placed requests are marked
	// so they move only once. All accesses are full scans.
	src := reqs.Clone()
	placed := make([]uint8, n)
	buckets := make([]uint32, n)
	for j := 0; j < n; j++ {
		buckets[j] = crypt.SipBucket(t.K, src.Key[j], b)
	}
	lost := 0
	for bkt := 0; bkt < b; bkt++ {
		for slot := 0; slot < z; slot++ {
			row := bkt*z + slot
			// One oblivious pass over the whole batch: move the first
			// unplaced request that hashes here into this slot.
			var taken uint8
			for j := 0; j < n; j++ {
				here := obliv.EqU64(uint64(buckets[j]), uint64(bkt))
				c := here & obliv.Not(placed[j]) & obliv.Not(taken)
				t.Rows.OCopyRowFrom(c, row, src, j)
				obliv.CondSetU8(c, &t.Rows.Tag[row], 1)
				obliv.CondSetU8(c, &placed[j], 1)
				taken |= c
			}
		}
	}
	for j := 0; j < n; j++ {
		lost += int(obliv.Not(placed[j]))
	}
	if lost > 0 {
		return nil, fmt.Errorf("%w: single-tier bucket exceeded by %d", ErrOverflow, lost)
	}
	return t, nil
}

// Bucket returns the row range a lookup of id must scan.
func (t *SingleTierTable) Bucket(id uint64) (lo, hi int) {
	b := int(crypt.SipBucket(t.K, id, t.B))
	return b * t.Z, (b + 1) * t.Z
}

// BenchmarkHashTableTiers reports the two-tier table's bucket sizes beside
// the single-tier one at 4096 requests (DESIGN.md §5 item 2).
func BenchmarkHashTableTiers(b *testing.B) {
	const n = 4096
	reqs := store.NewRequests(n, 160)
	for i := 0; i < n; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*3+1), 0, 0, 0, nil)
	}
	Order(reqs, crypt.MustNewSipKey())
	builder := NewBuilder(DefaultParams())
	tbl, err := builder.Build(reqs)
	if err != nil {
		b.Fatal(err)
	}
	g, single := tbl.Geom, singleTierBucket(n, 128)
	b.ReportMetric(float64(g.Z1), "tier1-bucket")
	b.ReportMetric(float64(g.Z2), "tier2-bucket")
	b.ReportMetric(float64(single), "single-tier-bucket")
	b.ReportMetric(float64(single)/float64(g.Z1), "tier1-shrinkage")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashTableConstruction times the two constructions at n = 1024.
func BenchmarkHashTableConstruction(b *testing.B) {
	const n = 1024
	reqs := store.NewRequests(n, 160)
	for i := 0; i < n; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*7+3), 0, uint64(i), uint64(i), nil)
	}
	b.Run("two-tier", func(b *testing.B) {
		batch := ordered(reqs, crypt.MustNewSipKey())
		builder := NewBuilder(DefaultParams())
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("signal-quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildSingleTierQuadratic(reqs, 128); err != nil {
				b.Fatal(err)
			}
		}
	})
}
