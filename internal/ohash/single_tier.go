package ohash

import "math"

// singleTierBucket returns the bucket size a *single*-tier oblivious hash
// table would need for n elements at mean load 2 with overflow probability
// at most 2^-lambda — the comparison point for the paper's claim that
// two-tier buckets are ~10× smaller (§5). It is sized by the same exact
// binomial tail as the two-tier table's tier 2, so the comparison is like
// with like. Exported to benchmarks via SingleTierBucketSize.
func singleTierBucket(n, lambda int) int {
	return tier2Bucket(n, buckets(n, 1), float64(lambda)*math.Ln2)
}

// SingleTierBucketSize is the exported form of the single-tier comparison
// used by the ablation benchmarks (DESIGN.md §5 item 2).
func SingleTierBucketSize(n, lambda int) int { return singleTierBucket(n, lambda) }
