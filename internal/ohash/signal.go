package ohash

import (
	"fmt"

	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
)

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
