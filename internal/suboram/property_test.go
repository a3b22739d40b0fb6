package suboram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snoopy/internal/store"
)

// TestBatchAccessPropertyInvariants quick-checks, across random distinct
// batches: the response multiset of keys equals the request multiset, all
// hits are flagged, all misses are zeroed.
func TestBatchAccessPropertyInvariants(t *testing.T) {
	s := newLoaded(t, Config{}, 150) // ids are multiples of 3
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		reqs := store.NewRequests(n, testBlock)
		used := map[uint64]bool{}
		for i := 0; i < n; i++ {
			var key uint64
			for {
				key = uint64(rng.Intn(600))
				if !used[key] {
					break
				}
			}
			used[key] = true
			reqs.SetRow(i, store.OpRead, key, 0, uint64(i), uint64(i), nil)
		}
		out, err := s.BatchAccess(sendable(reqs))
		if err != nil || out.Len() != n {
			return false
		}
		for i := 0; i < out.Len(); i++ {
			key := out.Key[i]
			if !used[key] {
				return false // fabricated response
			}
			stored := key%3 == 0 && key < 450
			if (out.Aux[i] == 1) != stored {
				return false
			}
			if !stored {
				for _, c := range out.Block(i) {
					if c != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
