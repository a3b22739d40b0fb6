package ohash

import (
	"math"

	"snoopy/internal/obliv"
)

// Geometry describes the concrete table dimensions for a batch of N.
type Geometry struct {
	N      int // batch size α
	B1, Z1 int // tier-1 buckets × capacity
	B2, Z2 int // tier-2 buckets × capacity
	C2     int // tier-2 real-element capacity
}

// The cost model's two constants, in units of one slot operation (one slot
// of one bucket compared and conditionally exchanged with a scanned object).
// DESIGN.md §18 records how they were measured.
const (
	// rowOpSlots is ρ: what one wide row operation of the build or the
	// extraction (a compare-exchange or conditional swap of two table rows)
	// costs, in the slots the grid trades it against — tier-1 slots, which
	// stream from a table larger than the first-level cache. Both move
	// blocks, so it barely depends on the block size.
	rowOpSlots = 6
	// lookupFixedSlots is c₀: the per-object work no geometry changes — its
	// SipHash lane, the bucket addressing and its share of the run kernel's
	// step. It shifts
	// every grid point's cost equally, so it never moves the choice; it is
	// here so ModelCost is the whole batch in one unit.
	lookupFixedSlots = 10
)

// The grid GeometryFor searches. Tier-1 capacities are multiples of the
// scan's key pass step (obliv.Tiers.ScanRun compares four slots per vector
// iteration and leaves a remainder to its portable loop); mean bucket loads of
// both tiers are the powers of two 2^minLoadExp … 2^maxLoadExp, which keeps
// every bucket count an integer multiple or divisor of the row count it is
// derived from.
const (
	z1Step     = 4
	z1Steps    = 4 // Z1 ∈ {4, 8, 12, 16}
	minLoadExp = -3
	maxLoadExp = 4
	loadSteps  = maxLoadExp - minLoadExp + 1
)

// buckets returns ceil(rows / 2^e), at least 1: the bucket count that puts
// rows at a mean load of at most 2^e.
func buckets(rows, e int) int {
	if e <= 0 {
		return max(rows<<-e, 1)
	}
	return max((rows+1<<e-1)>>e, 1)
}

// ModelCost is the subORAM's modelled cost of one batch against a partition
// of objects, in slot operations: ρ·(BuildCost + ExtractCost) for the table
// and c₀ + Z1 + Z2 for every object the scan passes.
func (g Geometry) ModelCost(objects int) int {
	return rowOpSlots*(g.BuildCost()+g.ExtractCost()) + objects*(lookupFixedSlots+g.Z1+g.Z2)
}

// GeometryFor returns the table shape for a batch of alpha requests served
// against a partition of objects stored objects at security parameter
// lambda: the point of the public grid that minimises ModelCost(objects),
// with C2 and Z2 the smallest sizes whose overflow bounds (tier2Capacity,
// tier2Bucket) are each at most 2^-(lambda+1). A pure function of its
// three public arguments; lambda ≤ 0 means 128. Ties go to the earlier grid
// point (smaller Z1, then smaller loads).
func GeometryFor(alpha, objects, lambda int) Geometry {
	alpha, objects = max(alpha, 1), max(objects, 0)
	if lambda <= 0 {
		lambda = 128
	}
	budget := float64(lambda+1) * math.Ln2
	var best Geometry
	bestCost := math.MaxInt
	for zi := 0; zi < z1Steps; zi++ {
		z1 := (zi + 1) * z1Step
		for li := 0; li < loadSteps && 1<<max(li+minLoadExp, 0) <= z1; li++ {
			g := Geometry{N: alpha, B1: buckets(alpha, li+minLoadExp)}
			g.Z1, g.C2 = z1, tier2Capacity(alpha, g.B1, zi, li, budget)
			// ModelCost is additive in the tier-2 table: price everything
			// else once, then each tier-2 shape by its own terms — the
			// build's distribution into it, the extraction's compaction of
			// it, and its bucket in every lookup.
			rest := g.ModelCost(objects)
			// The last candidate is a single bucket holding all of C2.
			for e2 := minLoadExp; e2 <= maxLoadExp+1 && rest < bestCost; e2++ {
				b2 := 1
				if e2 <= maxLoadExp {
					b2 = buckets(g.C2, e2)
				}
				if b2 == g.B2 {
					continue // same table as the previous load
				}
				g.B2, g.Z2 = b2, tier2Bucket(g.C2, b2, budget)
				slots := g.B2 * g.Z2
				if c := rest + rowOpSlots*(obliv.DistributeCost(slots)+obliv.CompactCost(slots)) + objects*g.Z2; c < bestCost {
					best, bestCost = g, c
				}
			}
		}
	}
	return best
}

// chernoffSteps is the number of exponents θ the tier-1 bound is evaluated
// at: 2^(k/4 − 5) for k = 0 … 43, i.e. 1/32 to ~54 in quarter octaves
// (small θ serves thousands of loaded buckets, large θ a tier 1 so roomy
// that a handful of rows is already a 2^-λ event). Every θ gives a valid
// bound; a finer grid would only tighten C2 by a fraction of a row.
const chernoffSteps = 44

var chernoffTheta = func() (t [chernoffSteps]float64) {
	for k := range t {
		t[k] = math.Exp2(float64(k)/4 - 5)
	}
	return t
}()

// logMGF[zi][li][k] is ln E[exp(θ_k·(X − Z1)⁺)] for X ~ Poisson(2^(li+minLoadExp))
// and Z1 = (zi+1)·z1Step: the log moment generating function of one tier-1
// bucket's overflow at the grid's nominal mean load.
var logMGF = func() (t [z1Steps][loadSteps][chernoffSteps]float64) {
	for zi := range t {
		for li := range t[zi] {
			for k := range t[zi][li] {
				t[zi][li][k] = overflowLogMGF(math.Exp2(float64(li+minLoadExp)), (zi+1)*z1Step, chernoffTheta[k])
			}
		}
	}
	return t
}()

// overflowLogMGF returns ln E[exp(θ·(X − z)⁺)] for X ~ Poisson(mu), summing
// the series until the terms — which fall at least geometrically once x
// passes 2·mu·e^θ — no longer register.
func overflowLogMGF(mu float64, z int, theta float64) float64 {
	p := math.Exp(-mu) // P[X = 0]
	sum := 0.0
	for x := 0; x <= z; x++ {
		sum += p
		p *= mu / float64(x+1)
	}
	// p is now P[X = z+1]; from here each term carries e^(θ·(x − z)) and
	// the series is e^(−θz + μ(e^θ−1))·P[Poisson(μe^θ) > z].
	grow := mu * math.Exp(theta)
	if a := grow - mu - theta*float64(z); a > 600 {
		return a + math.Ln2 // M ≤ 1 + e^a; the terms themselves would overflow
	}
	term := p * math.Exp(theta)
	for x := z + 1; ; x++ {
		sum += term
		if float64(x+1) > 2*grow && term < 1e-18*sum {
			break
		}
		term *= grow / float64(x+1)
	}
	return math.Log(sum)
}

// tier2Capacity returns the smallest C2 ≥ 1 whose tier-1 overflow bound is
// at most e^-budget, for the grid point (zi, li), whose nominal mean load
// μ₁ is at least alpha/b1. The total overflow T of alpha keys thrown into
// b1 buckets of capacity Z1 satisfies, for every θ > 0,
//
//	P[T > C2] ≤ exp(b1·ln M(θ) − θ·(C2+1)),   M(θ) = E[exp(θ·(X − Z1)⁺)], X ~ Poisson(μ₁),
//
// (derivation in DESIGN.md §18), so the smallest sufficient C2 at θ is
// ⌈(b1·ln M(θ) + budget)/θ⌉ − 1 and the result is the minimum over the θ
// grid — capped at α − Z1, which the overflow cannot exceed.
func tier2Capacity(alpha, b1, zi, li int, budget float64) int {
	most := alpha - (zi+1)*z1Step // every key in one bucket
	if most <= 1 {
		return 1
	}
	lm := &logMGF[zi][li]
	need := float64(most)
	for k, theta := range chernoffTheta {
		if v := float64(b1)*lm[k] + budget; v < need*theta {
			need = v / theta
		}
	}
	// T > C2 means T ≥ C2+1; the 1e-9 absorbs the series' rounding.
	return max(int(math.Ceil(need+1e-9))-1, 1)
}

// logFact[j] is ln j!, for the binomial terms of tier2Bucket.
var logFact = func() (t [4097]float64) {
	for j := 2; j < len(t); j++ {
		t[j] = t[j-1] + math.Log(float64(j))
	}
	return t
}()

func lnFactorial(j int) float64 {
	if j < len(logFact) {
		return logFact[j]
	}
	v, _ := math.Lgamma(float64(j + 1))
	return v
}

// tier2Bucket returns the smallest Z2 with b2·P[Bin(c2, 1/b2) > Z2] ≤
// e^-budget: at most c2 rows reach tier 2, a fresh random function spreads
// them over b2 buckets, and the union bound over the buckets uses the exact
// binomial tail of one bucket's load. Z2 = c2 always qualifies (the tail is
// empty). Everything is computed relative to the allowed per-bucket tail
// e^thr, so no λ is small enough to underflow.
func tier2Bucket(c2, b2 int, budget float64) int {
	if b2 == 1 {
		return c2
	}
	p := 1 / float64(b2)
	lp, lq, odds := math.Log(p), math.Log1p(-p), p/(1-p)
	thr := -budget - math.Log(float64(b2))
	lnTerm := func(k int) float64 { // ln P[Bin(c2, p) = k] − thr
		return lnFactorial(c2) - lnFactorial(k) - lnFactorial(c2-k) + float64(k)*lp + float64(c2-k)*lq - thr
	}
	// The tail from k is at least its first term, so no k whose term alone
	// exceeds the allowance can do. Past the mean the terms fall, so the
	// first k there whose term fits is found by bisection.
	lo, hi := c2/b2+1, c2+1
	for lo < hi {
		if mid := (lo + hi) / 2; lnTerm(mid) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// From there the exact tail decides; it exceeds its first term by less
	// than 1/(1−r) with r ≤ 1 − 2/(load+2) the terms' ratio, so k moves by
	// one or two at most. 1e-9 absorbs the rounding of ~10² operations.
	for k := lo; k <= c2; k++ {
		term := math.Exp(lnTerm(k))
		tail := 0.0
		for j := k; term > 1e-14*tail; j++ {
			tail += term
			term *= float64(c2-j) / float64(j+1) * odds
		}
		if tail <= 1-1e-9 {
			return k - 1 // P[load ≥ k] fits: a bucket of k−1 overflows rarely enough
		}
	}
	return c2
}

// BuildCost returns the number of oblivious row operations (compare-
// exchanges and conditional swaps) constructing a table of this geometry
// performs: per tier, compact the real rows and distribute them into the
// tier's slots — tier 1's arrive in table order, tier 2's are sorted first —
// plus the compaction that isolates the tier-1 overflow. A pure function of
// public parameters, for the planner.
func (g Geometry) BuildCost() int {
	c := min(g.C2, g.N)
	return 2*obliv.CompactCost(g.N) + obliv.DistributeCost(g.B1*g.Z1) +
		obliv.SortCost(c) + obliv.CompactCost(c) + obliv.DistributeCost(g.B2*g.Z2)
}

// ExtractCost is BuildCost's counterpart for Extract: compact each tier,
// sort the tier-2 candidates, merge them into the tier-1 run.
func (g Geometry) ExtractCost() int {
	c := min(g.C2, g.N)
	return obliv.CompactCost(g.B1*g.Z1) + obliv.CompactCost(g.B2*g.Z2) +
		obliv.SortCost(c) + obliv.MergeSortedCost([]int{c, g.N})
}

// Slots returns the table's total slot count B1·Z1 + B2·Z2.
func (g Geometry) Slots() int { return g.B1*g.Z1 + g.B2*g.Z2 }

// SlotsScannedPerLookup returns Z1+Z2: the per-object scan cost.
func (g Geometry) SlotsScannedPerLookup() int { return g.Z1 + g.Z2 }
