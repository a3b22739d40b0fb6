package ohash

import (
	"errors"
	"flag"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/store"
)

// exhaustive widens the two long-running geometry tests to their full size:
// every batch size's bounds re-derived in the sweep, 10⁶ builds per shape in
// the Monte Carlo (scripts/check.sh passes it; the default keeps the package
// within a few seconds of `go test ./...`).
var exhaustive = flag.Bool("exhaustive", false, "run the geometry sweep and the overflow Monte Carlo at full size")

// ---- The two overflow bounds, re-derived without the production tables ----

// tier1OverflowBound is the Chernoff bound on P[tier-1 spill > C2] for g.N
// keys in B1 buckets of Z1, at the batch's true mean load N/B1 (the
// production code uses the grid's nominal load, which is at least that):
// min over θ of exp(B1·ln E[e^(θ(X−Z1)⁺)] − θ(C2+1)), X ~ Poisson(N/B1), the
// expectation summed term by term in log space.
func tier1OverflowBound(g Geometry) float64 {
	if g.C2 >= g.N-g.Z1 {
		return 0 // even every key in one bucket spills no more
	}
	mu := float64(g.N) / float64(g.B1)
	var logPMF [1200]float64 // ln P[X = x]
	logPMF[0] = -mu
	for x := 1; x < len(logPMF); x++ {
		logPMF[x] = logPMF[x-1] + math.Log(mu/float64(x))
	}
	bound := 1.0
	for k := -20; k <= 24; k++ {
		theta := math.Exp2(float64(k) / 4)
		peak := mu * math.Exp(theta) // the series' terms rise until x ≈ μe^θ
		if peak > 500 {
			break // no bound worth having up there
		}
		// log-sum-exp over x of logPMF(x) + θ·(x−Z1)⁺
		top, sum := math.Inf(-1), 0.0
		for pass := 0; pass < 2; pass++ {
			for x := 0; x < len(logPMF); x++ {
				v := logPMF[x] + theta*float64(max(x-g.Z1, 0))
				if pass == 0 {
					top = math.Max(top, v)
				} else {
					sum += math.Exp(v - top)
				}
				if x > g.Z1 && float64(x) > 2*peak && v < top-60 {
					break
				}
			}
		}
		logM := top + math.Log(sum)
		bound = math.Min(bound, math.Exp(float64(g.B1)*logM-theta*float64(g.C2+1)))
	}
	return bound
}

// tier2OverflowBound is B2 times the exact tail P[Bin(C2, 1/B2) > Z2], each
// term through Lgamma.
func tier2OverflowBound(g Geometry) float64 {
	p := 1 / float64(g.B2)
	lc, _ := math.Lgamma(float64(g.C2 + 1))
	tail := 0.0
	for j := g.C2; j > g.Z2; j-- {
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(g.C2 - j + 1))
		tail += math.Exp(lc - lj - lr + float64(j)*math.Log(p) + float64(g.C2-j)*math.Log1p(-p))
	}
	return float64(g.B2) * tail
}

// gridStep reports how far apart two consecutive batch sizes' shapes sit on
// the grid: the larger of the Z1 steps and the tier-1 load octaves.
func gridStep(a, b Geometry) int {
	load := func(g Geometry) int { return int(math.Round(math.Log2(float64(g.N) / float64(g.B1)))) }
	abs := func(x int) int { return max(x, -x) }
	return max(abs(a.Z1-b.Z1)/z1Step, abs(load(a)-load(b)))
}

// TestGeometryBoundsSweep: over every batch size to 4 096, partitions from
// none to 2²⁰ objects and λ ∈ {40, 80, 128}, the chosen shape's two computed
// overflow bounds (re-derived at every α ≤ 128 and every eighth beyond;
// everywhere with -exhaustive) are each at most 2^-(λ+1), so their sum is at
// most 2^-λ;
// tier 1 has a slot for every row; a partition of 64·α objects or more is
// never scanned at more than the legacy 44 slots per lookup; a partition no
// larger than the batch never gets a larger table than the legacy shape's;
// and the modelled cost moves smoothly with α, with shapes more than one
// grid step apart at consecutive α a rarity (near-tied grid points trade
// places; see DESIGN.md §18).
func TestGeometryBoundsSweep(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for _, lambda := range []int{40, 80, 128} {
		limit := math.Exp2(-float64(lambda+1)) * (1 + 1e-6)
		for mode, objectsFor := range []func(alpha int) int{
			func(int) int { return 0 },
			func(alpha int) int { return alpha },
			func(alpha int) int { return alpha << 4 },
			func(alpha int) int { return alpha << 8 },
			func(int) int { return 1 << 20 },
		} {
			var prev Geometry
			prevCost, jumps := 0, 0
			for alpha := 1; alpha <= 4096; alpha += stride {
				objects := objectsFor(alpha)
				g := GeometryFor(alpha, objects, lambda)
				if g.N != alpha || g.B1 < 1 || g.B2 < 1 || g.Z2 < 1 || g.C2 < 1 || g.Z1%z1Step != 0 {
					t.Fatalf("λ=%d α=%d N=%d: malformed %+v", lambda, alpha, objects, g)
				}
				if *exhaustive || alpha <= 128 || alpha%8 == 0 {
					if b := tier1OverflowBound(g); b > limit {
						t.Fatalf("λ=%d %+v: tier-1 overflow bound %.3g > 2^-%d", lambda, g, b, lambda+1)
					}
					if b := tier2OverflowBound(g); b > limit {
						t.Fatalf("λ=%d %+v: tier-2 overflow bound %.3g > 2^-%d", lambda, g, b, lambda+1)
					}
				}
				if g.B1*g.Z1 < alpha {
					t.Fatalf("λ=%d %+v: tier 1 has fewer slots than rows", lambda, g)
				}
				if objects >= 64*alpha && g.SlotsScannedPerLookup() > 44 {
					t.Fatalf("λ=%d %+v against %d objects: %d slots per lookup", lambda, g, objects, g.SlotsScannedPerLookup())
				}
				if legacy := legacyGeometry(alpha, lambda); objects <= alpha && g.Slots() > legacy.Slots() {
					t.Fatalf("λ=%d %+v against %d objects: %d table slots, legacy %d", lambda, g, objects, g.Slots(), legacy.Slots())
				}
				cost := g.ModelCost(objects)
				if alpha > 64 && stride == 1 {
					if lo, hi := float64(prevCost)*0.99, float64(prevCost)*(1.03+6/float64(alpha)); float64(cost) < lo || float64(cost) > hi {
						t.Fatalf("λ=%d mode %d: modelled cost jumps %d → %d between α=%d and %d (%+v → %+v)",
							lambda, mode, prevCost, cost, alpha-1, alpha, prev, g)
					}
					if gridStep(prev, g) > 1 {
						jumps++
					}
				}
				prev, prevCost = g, cost
			}
			if jumps > 40 {
				t.Fatalf("λ=%d mode %d: %d of 4 032 consecutive batch sizes sit more than one grid step apart", lambda, mode, jumps)
			}
			t.Logf("λ=%d mode %d: %d consecutive shapes more than one grid step apart", lambda, mode, jumps)
		}
	}
}

// TestGeometryForIsTheGridMinimum: GeometryFor's split of the objective into
// a tier-2-free part and two tier-2 terms, and its pruning, pick exactly the
// grid point whose whole ModelCost is least (earliest on ties).
func TestGeometryForIsTheGridMinimum(t *testing.T) {
	shapes := append([][2]int{{1, 0}, {7, 100}, {64, 64}, {1024, 1 << 20}, {4096, 0}}, ledgerShapes...)
	for _, lambda := range []int{10, 128} {
		budget := float64(lambda+1) * math.Ln2
		for _, s := range shapes {
			alpha, objects := s[0], s[1]
			var best Geometry
			bestCost := math.MaxInt
			for zi := 0; zi < z1Steps; zi++ {
				for li := 0; li < loadSteps && 1<<max(li+minLoadExp, 0) <= (zi+1)*z1Step; li++ {
					g := Geometry{N: alpha, B1: buckets(alpha, li+minLoadExp)}
					g.Z1, g.C2 = (zi+1)*z1Step, tier2Capacity(alpha, g.B1, zi, li, budget)
					for e2 := minLoadExp; e2 <= maxLoadExp+1; e2++ {
						g.B2 = 1
						if e2 <= maxLoadExp {
							g.B2 = buckets(g.C2, e2)
						}
						g.Z2 = tier2Bucket(g.C2, g.B2, budget)
						if c := g.ModelCost(objects); c < bestCost {
							best, bestCost = g, c
						}
					}
				}
			}
			if got := GeometryFor(alpha, objects, lambda); got != best {
				t.Fatalf("λ=%d α=%d N=%d: GeometryFor %+v (cost %d), grid minimum %+v (cost %d)",
					lambda, alpha, objects, got, got.ModelCost(objects), best, bestCost)
			}
		}
	}
}

// TestModelPrefersShortLookupsForLargePartitions: the partition size is what
// the shape responds to — as it grows at a fixed batch, slots per lookup
// never rise and the table never shrinks.
func TestModelPrefersShortLookupsForLargePartitions(t *testing.T) {
	for _, alpha := range []int{16, 122, 845, 4096} {
		prev := GeometryFor(alpha, 0, 128)
		for objects := 1; objects <= 1<<22; objects *= 4 {
			g := GeometryFor(alpha, objects, 128)
			if g.SlotsScannedPerLookup() > prev.SlotsScannedPerLookup() || g.Slots() < prev.Slots() {
				t.Fatalf("α=%d: %d → %d objects moved %+v to %+v", alpha, objects/4, objects, prev, g)
			}
			prev = g
		}
	}
	// The paper's two-tier claim (§5): tier-1 buckets several times smaller
	// than a single-tier table's, sized by the same exact tail.
	if g, single := GeometryFor(4096, 1<<20, 128), singleTierBucket(4096, 128); single < 5*g.Z1 {
		t.Fatalf("two-tier advantage missing: single-tier bucket %d vs Z1 %d", single, g.Z1)
	}
}

// TestGeometryIsAFunctionOfPublicInputs: a thousand batches of random keys,
// operations and payloads per (α, N, λ) tuple all get the one shape
// GeometryFor names for the tuple — through a Builder reused across tuples
// of the same partition — and moving any one public input moves only to
// another such shape.
func TestGeometryIsAFunctionOfPublicInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, tuple := range [][3]int{{122, 1 << 11, 128}, {123, 1 << 11, 128}, {122, 1 << 15, 128}, {122, 1 << 11, 40}, {64, 1 << 9, 128}} {
		alpha, objects, lambda := tuple[0], tuple[1], tuple[2]
		want := GeometryFor(alpha, objects, lambda)
		b := NewBuilder(Params{Objects: objects, Lambda: lambda})
		for trial := 0; trial < 1000; trial++ {
			reqs := store.NewRequests(alpha, 8)
			for i, k := range rng.Perm(8 * alpha)[:alpha] {
				key := uint64(k)
				if rng.Intn(4) == 0 {
					key |= store.DummyKeyBit
				}
				reqs.SetRow(i, uint8(rng.Intn(2)), key, 0, rng.Uint64(), rng.Uint64(), []byte{byte(rng.Intn(256))})
			}
			Order(reqs, crypt.SipKey{rng.Uint64() | 1, rng.Uint64()})
			tbl, err := b.Build(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Geom != want {
				t.Fatalf("(α=%d, N=%d, λ=%d) trial %d: shape %+v, the tuple's is %+v", alpha, objects, lambda, trial, tbl.Geom, want)
			}
		}
	}
}

// ---- Monte Carlo: the bounds against the events they bound ----

// placement throws keys 0 … g.N−1 at a table of shape g under a fresh hash
// key, the way the build does — both buckets of a key from its one hash; a
// bucket keeps its Z1 first keys in table order, the rest spill, tier 2
// takes at most C2 of them at most Z2 to a bucket — and reports whether the
// build overflows. counts, load, hs (capacity 2·N) and b2s are scratch.
func placement(g Geometry, k crypt.SipKey, counts, load []int, hs *[]uint64, b2s []uint32) bool {
	clear(counts)
	clear(load)
	h := (*hs)[:0]
	for key := uint64(0); key < uint64(g.N); key++ {
		v := crypt.SipHash(k, key)
		counts[(v>>32)*uint64(g.B1)>>32]++
		b2s[key] = uint32((v & (1<<32 - 1)) * uint64(g.B2) >> 32)
		h = append(h, v&^(1<<32-1)|key)
	}
	// How many spill does not depend on which keys do; where they land in
	// tier 2 does, unless tier 2 is one bucket.
	spilled := 0
	for _, c := range counts {
		spilled += max(c-g.Z1, 0)
	}
	if spilled > g.C2 || g.B2 == 1 {
		*hs = h
		return spilled > min(g.C2, g.Z2)
	}
	// Buckets fill in table order, (H, key): group the keys of overfull
	// buckets by bucket (a counting sort), then order each group.
	spill, at := (*hs)[len(h):cap(*hs)][:0], 0
	starts := make([]int, 0, g.B1)
	for _, c := range counts {
		starts = append(starts, at)
		if c > g.Z1 {
			at += c
		}
	}
	spill = spill[:at]
	for _, v := range h {
		if b := (v >> 32) * uint64(g.B1) >> 32; counts[b] > g.Z1 {
			spill[starts[b]] = v
			starts[b]++
		}
	}
	*hs = h
	over := false
	for b, end := 0, 0; b < g.B1; b++ {
		if counts[b] <= g.Z1 {
			continue
		}
		group := spill[end : end+counts[b]]
		end += counts[b]
		slices.Sort(group)
		for _, v := range group[g.Z1:] {
			b2 := b2s[v&(1<<32-1)]
			if load[b2]++; load[b2] > g.Z2 {
				over = true
			}
		}
	}
	return over
}

// overflowRate runs trials placements of shape g under keys drawn from rng
// and returns how many overflowed; every checkEvery-th one, and every
// overflowing one up to a cap, is also built for real, which must agree.
func overflowRate(t *testing.T, g Geometry, rng *rand.Rand, trials, checkEvery int) int {
	t.Helper()
	counts, load, hs, b2s := make([]int, g.B1), make([]int, g.B2), make([]uint64, 0, 2*g.N), make([]uint32, g.N)
	reqs := store.NewRequests(g.N, 8)
	for i := 0; i < g.N; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i), 0, uint64(i), uint64(i), nil)
	}
	b := NewBuilder(Params{})
	overflows, builtOverflows := 0, 0
	for trial := 0; trial < trials; trial++ {
		k := crypt.SipKey{rng.Uint64(), rng.Uint64()}
		over := placement(g, k, counts, load, &hs, b2s)
		if over {
			overflows++
		}
		if trial%checkEvery == 0 || (over && builtOverflows < 50) {
			_, err := withGeometry(b, g).Build(ordered(reqs, k))
			if over != errors.Is(err, ErrOverflow) || (!over && err != nil) {
				t.Fatalf("%+v under key %x: placement says overflow=%v, Build says %v", g, k, over, err)
			}
			if over {
				builtOverflows++
			}
		}
	}
	return overflows
}

// TestOverflowRateWithinBound: at λ ∈ {8, 10, 12} the observed ErrOverflow
// rate of 10⁵ builds (10⁶ with -exhaustive; fixed seed) in the shape
// GeometryFor picks stays within
// 2^-λ, judged three binomial standard deviations clear of the line. The
// negative control keeps that from passing vacuously: at a grid point where
// the spill is a large share of the batch (Z1 = 4 at mean load 4), the
// capacity the bound computes holds, and the same shape with a quarter of
// that capacity taken away overflows far more often than 2^-λ — an
// experiment too weak to see an under-sized table, or a bound that sized it
// with more than that to spare, fails here. A third shape loads tier 2 to
// exactly the count its bucket size was computed for, and holds the observed
// rate to the exact binomial tail from both sides — the check that tier-2
// placement from the low word of the hash that chose the tier-1 bucket is
// still uniform given every tier-1 placement.
func TestOverflowRateWithinBound(t *testing.T) {
	trials := 100_000
	if *exhaustive {
		trials = 1_000_000
	}
	rng := rand.New(rand.NewSource(65))
	for _, lambda := range []int{8, 10, 12} {
		p := math.Exp2(-float64(lambda))
		allowed := func(trials int) float64 {
			return float64(trials)*p + 3*math.Sqrt(float64(trials)*p*(1-p))
		}
		for _, s := range [][3]int{{64, 1 << 14, trials}, {256, 0, trials / 5}} {
			g := GeometryFor(s[0], s[1], lambda)
			got := overflowRate(t, g, rng, s[2], 5000)
			if float64(got) > allowed(s[2]) {
				t.Fatalf("λ=%d %+v: %d overflows in %d builds, 2^-λ allows %.0f", lambda, g, got, s[2], float64(s[2])*p)
			}
			t.Logf("λ=%d %+v: %d overflows in %d builds (2^-λ allows %.0f)", lambda, g, got, s[2], float64(s[2])*p)
		}

		const alpha, zi, li = 1024, 0, 2 - minLoadExp // Z1 = 4, mean load 4
		g := Geometry{N: alpha, B1: buckets(alpha, 2), B2: 1}
		g.Z1, g.C2 = z1Step, tier2Capacity(alpha, g.B1, zi, li, float64(lambda+1)*math.Ln2)
		g.Z2 = g.C2
		few := trials / 10
		if got := overflowRate(t, g, rng, few, 5000); float64(got) > allowed(few) {
			t.Fatalf("λ=%d %+v: %d overflows in %d builds, 2^-λ allows %.0f", lambda, g, got, few, float64(few)*p)
		}
		small := g
		small.C2 -= g.C2 / 4
		small.Z2 = small.C2
		if bad := overflowRate(t, small, rng, few, 5000); float64(bad) < 10*allowed(few) {
			t.Fatalf("λ=%d: %+v, under-sized from C2=%d, overflowed only %d times in %d builds: the experiment cannot tell a table that is too small",
				lambda, small, g.C2, bad, few)
		}

		// The tier-2 bucket bound where it binds: a tier 1 so loaded (64
		// buckets of 4 at mean load 16) that, all but certainly, exactly
		// spill = N − B1·Z1 rows reach tier 2, into B2 = 64 buckets of the Z2
		// the exact tail gives for that many. Which rows spill is decided by
		// the high word of each key's hash and where they land by the low
		// word of the same hash; if the two were dependent the observed rate
		// would leave the binomial tail it is held to here from both sides
		// (the union bound over buckets is loose by well under a factor 2).
		const spill = 1024 - 64*z1Step
		full := Geometry{N: 1024, B1: 64, Z1: z1Step, C2: 1024, B2: 64}
		full.Z2 = tier2Bucket(spill, full.B2, float64(lambda+1)*math.Ln2)
		atSpill := full
		atSpill.C2 = spill
		tail, sd := float64(few)*tier2OverflowBound(atSpill), 3*math.Sqrt(float64(few)*tier2OverflowBound(atSpill))
		got := float64(overflowRate(t, full, rng, few, 5000))
		if got > tail+sd || got < tail/2-sd {
			t.Fatalf("λ=%d %+v: %.0f tier-2 bucket overflows in %d builds, the exact tail predicts at most %.0f and no fewer than half",
				lambda, full, got, few, tail)
		}
		t.Logf("λ=%d %+v: %.0f tier-2 bucket overflows in %d builds (exact tail × buckets: %.1f)", lambda, full, got, few, tail)
	}
}

// TestTier2BucketIsTheSmallest: tier2Bucket returns the least Z2 whose exact
// tail bound holds — one less breaks it — across loads, capacities and λ.
func TestTier2BucketIsTheSmallest(t *testing.T) {
	for _, lambda := range []int{8, 40, 128, 600} {
		budget := float64(lambda+1) * math.Ln2
		for _, c2 := range []int{1, 2, 7, 20, 98, 106, 1000, 5000} {
			for e := minLoadExp; e <= maxLoadExp; e++ {
				b2 := buckets(c2, e)
				z2 := tier2Bucket(c2, b2, budget)
				g := Geometry{C2: c2, B2: b2, Z2: z2}
				limit := math.Exp2(-float64(lambda + 1))
				if lambda <= 128 { // beyond, the bound underflows float64: only relative checks
					if b := tier2OverflowBound(g); b > limit*(1+1e-6) {
						t.Fatalf("λ=%d C2=%d B2=%d: Z2=%d leaves bound %.3g", lambda, c2, b2, z2, b)
					}
					if g.Z2--; z2 > 1 && z2 > (c2+b2-1)/b2 && tier2OverflowBound(g) <= limit*(1-1e-6) {
						t.Fatalf("λ=%d C2=%d B2=%d: Z2=%d already suffices, got %d", lambda, c2, b2, z2-1, z2)
					}
				}
				if z2 < 1 || z2 > c2 {
					t.Fatalf("λ=%d C2=%d B2=%d: Z2=%d out of range", lambda, c2, b2, z2)
				}
			}
		}
	}
}

// BenchmarkGeometryFor: what a batch size never seen before costs the
// Builder, and what one seen before does.
func BenchmarkGeometryFor(b *testing.B) {
	b.Run("first-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGeometry = GeometryFor(100+i%3000, 1<<13, 128)
		}
	})
	b.Run("memoised", func(b *testing.B) {
		bld := NewBuilder(Params{Objects: 1 << 13})
		for alpha := 100; alpha < 164; alpha++ {
			bld.geometry(alpha)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkGeometry = bld.geometry(100 + i&63)
		}
	})
}

var sinkGeometry Geometry
