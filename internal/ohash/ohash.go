// Package ohash implements the oblivious two-tier hash table of Chan et al.
// that Snoopy's subORAM uses to process request batches (paper §5). The
// table is built from a batch of distinct requests with an oblivious
// construction (per tier: sort the real rows, compact the ones that fit,
// distribute them to their slots); afterwards, looking
// up an object id means scanning one full bucket in each tier, which hides
// the slot — and existence — of the match.
//
// Tier sizing follows the paper's approach — tier-1 buckets are small
// (overflow there is expected and harmless) and the overflow spills into a
// tier 2 whose failure is cryptographically negligible — but no size is a
// hand-set constant: GeometryFor picks bucket counts and capacities from a
// public grid to minimise the subORAM's modelled batch cost for the public
// (batch size, partition size), with the tier-2 capacity and bucket size the
// smallest whose computed overflow bounds are each at most 2^-(λ+1).
// Construction returns an error in the negligible event that a batch cannot
// be placed; callers treat that as the security-failure event of the
// analysis.
package ohash

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/trace"
)

// TableDummyBit distinguishes table-padding dummy keys from load-balancer
// dummy keys (which carry only store.DummyKeyBit); padding keys sort after
// every batch key within a bucket.
const TableDummyBit = uint64(1) << 62

// ErrOverflow is returned when the batch cannot be placed — a probability-
// negligible event under the configured security parameter.
var ErrOverflow = errors.New("ohash: hash table overflow")

// Params configures a table build. The table's shape is not among them: it
// is GeometryFor's function of the batch size, Objects and Lambda.
type Params struct {
	// Lambda is the security parameter (bits): a build fails with
	// ErrOverflow with probability at most 2^-Lambda. Zero means 128.
	Lambda int
	// Objects is the public size of the partition the table will be scanned
	// against (the subORAM fills it in): the scan pays for every slot of a
	// lookup once per object, so it decides how much table the build may
	// spend to make lookups short. Zero prices the table alone.
	Objects int
	// Rec, when non-nil, records construction access traces (test-only).
	Rec *trace.Recorder
	// Pool supplies the working memory for table extraction (and, via
	// Builder, scan-worker table copies). Nil means arena.Default.
	Pool *arena.Pool
}

// pool returns the configured arena, defaulting to the process-wide one.
func (p Params) pool() *arena.Pool {
	if p.Pool != nil {
		return p.Pool
	}
	return arena.Default
}

// DefaultParams mirrors the deployment default: λ = 128.
func DefaultParams() Params { return Params{Lambda: 128} }

// Hash is H(K, key), the high 32 bits of SipHash(K, key): the word
// crypt.SipBucket reduces by multiply-shift, so a key's tier-1 bucket
// ⌊H·B1/2³²⌋ never decreases as H grows, whatever B1 is.
func Hash(k crypt.SipKey, key uint64) uint32 { return uint32(crypt.SipHash(k, key) >> 32) }

// Rank places a request of partition part whose key hashes to h in the
// load balancer's order. Ascending (Rank, key) is table order — ascending
// (H, key), hence a bucket order for every geometry — within each
// partition, partition-major; DummyRank trails every real row of its
// partition.
func Rank(part int, h uint32) uint64 { return uint64(part)<<33 | uint64(h) }

// DummyRank is the rank of a dummy or vacant row of partition part.
func DummyRank(part int) uint64 { return uint64(part)<<33 | 1<<32 }

// ErrOrder is returned for a batch that does not say what order it is in:
// its rows carry no table key, or differing ones, or its real rows do not
// strictly ascend in table order ahead of its dummies.
var ErrOrder = errors.New("ohash: batch is not in the table order its key declares")

// Order stamps reqs with k and puts its rows in the table order Build
// expects — real rows ascending by (H, key), dummies after them in key
// order — by a plain, non-oblivious sort. It is for batches whose contents
// are public (calibration probes, tests); the load balancer orders real
// batches obliviously.
func Order(reqs *store.Requests, k crypt.SipKey) {
	src, perm, rank := reqs.Clone(), make([]int, reqs.Len()), make([]uint64, reqs.Len())
	for i := range perm {
		perm[i] = i
		rank[i] = obliv.SelectU64(store.DummyMark(src.Key[i]), Rank(0, Hash(k, src.Key[i])), DummyRank(0))
	}
	sort.Slice(perm, func(a, b int) bool {
		ra, rb := rank[perm[a]], rank[perm[b]]
		return ra < rb || ra == rb && src.Key[perm[a]] < src.Key[perm[b]]
	})
	for i, j := range perm {
		reqs.CopyRowPlain(i, src, j)
	}
	reqs.StampKey(k)
}

// Table is a constructed two-tier oblivious hash table over a batch of
// requests. Tier rows use Tag as the occupancy bit (1 = holds a batch
// request) and Sub as the bucket index.
type Table struct {
	Geom Geometry
	// K is the batch's one hash key, stamped in its rows by the load
	// balancer (store.StampKey): a key's tier-1 bucket is the high word of
	// its SipHash under K reduced to [0, B1), its tier-2 bucket the low word
	// reduced to [0, B2) (crypt.SipBuckets).
	K     crypt.SipKey
	Tier1 *store.Requests // Geom.B1 × Geom.Z1 rows, bucket-major
	Tier2 *store.Requests // Geom.B2 × Geom.Z2 rows, bucket-major

	// pool backs Extract's output (arena.Default when zero).
	pool *arena.Pool
}

var errEmptyBatch = fmt.Errorf("ohash: empty batch")

// batchKey is the table key a batch declares, refusing an empty or unkeyed
// one.
func batchKey(reqs *store.Requests) (crypt.SipKey, error) {
	if reqs.Len() == 0 {
		return crypt.SipKey{}, errEmptyBatch
	}
	k := crypt.SipKey(reqs.KeyStamp(0))
	if k == (crypt.SipKey{}) {
		return k, fmt.Errorf("%w: no table key", ErrOrder)
	}
	return k, nil
}

// CheckDelivery is the one delivery gate every partition kind runs first, in
// Deliver, before it spends anything: it refuses no batches, a batch whose
// block size is not the partition's, and any batch Build refuses for its
// order. Batch shapes are public (§4.2), so it is pure; on a delivery it
// accepts it allocates nothing. Overflow is left to the table build, the one
// place that can see it.
func CheckDelivery(blockSize int, batches []*store.Requests) error {
	if len(batches) == 0 {
		return errors.New("ohash: a delivery needs a batch")
	}
	for _, r := range batches {
		if r.BlockSize != blockSize {
			return fmt.Errorf("ohash: batch block size %d != the partition's %d", r.BlockSize, blockSize)
		}
		if err := checkOrder(r); err != nil {
			return err
		}
	}
	return nil
}

// checkOrder refuses, as Build does, a batch that is empty, unkeyed or not
// in the table order its key declares.
func checkOrder(reqs *store.Requests) error {
	k, err := batchKey(reqs)
	if err != nil {
		return err
	}
	c := orderCheck{k: k, prevReal: 1}
	for i := 0; i < reqs.Len(); i++ {
		c.row(reqs, i)
	}
	if c.bad != 0 {
		return ErrOrder
	}
	return nil
}

// orderCheck folds a batch's rows, in order, into the branch-free order
// check: a real row follows a real row it strictly exceeds in table order,
// and every row carries the key k.
type orderCheck struct {
	k        crypt.SipKey
	bad      uint8
	prevH    uint32
	prevKey  uint64
	prevReal uint8
}

// row folds row i of r and returns its hash under k and its real bit.
func (c *orderCheck) row(r *store.Requests, i int) (h uint32, real uint8) {
	key := r.Key[i]
	real = obliv.Not(store.DummyMark(key))
	h = Hash(c.k, key)
	_, b := bits.Sub64(c.prevKey, key, 0) // borrows iff (prevH, prevKey) < (h, key)
	_, b = bits.Sub64(uint64(c.prevH), uint64(h), b)
	c.bad |= real & obliv.Not(obliv.Or(obliv.EqU64(uint64(i), 0), c.prevReal&uint8(b)))
	c.bad |= obliv.NeqU64((r.Seq[i]^c.k[0])|(r.Client[i]^c.k[1]), 0)
	c.prevH, c.prevKey, c.prevReal = h, key, real
	return h, real
}

// build runs the oblivious construction in place: t.Tier1 arrives holding
// the n batch rows and t.Tier2 sized for the tier-2 candidates, both zeroed
// through their table size (see Builder); spill and keep are n-row scratch.
// The batch is in table order already — its real rows ascend by (H, key),
// its load-balancer dummies trail them — so tier 1 is "mark the first Z1
// real rows of every bucket, scatter them to bucket·Z1 + rank" with no
// sort; the dummies take the sentinel bucket B1 and never enter the table.
// Tier 2 sorts its at most C2 candidates and scatters them the same way.
// The padding slots are never sorted, only numbered.
func (t *Table) build(rec *trace.Recorder, spill *store.Requests, keep []uint8) error {
	g := t.Geom
	n := g.N
	t1, t2 := t.Tier1, t.Tier2
	t1.Rec, t2.Rec, spill.Rec = rec, rec, rec

	// ---- Tier 1 ----
	// One pass checks the order branch-free and buckets the rows.
	order := orderCheck{k: t.K, prevReal: 1}
	for i := 0; i < n; i++ {
		h, real := order.row(t1, i)
		t1.Sub[i] = uint32(obliv.SelectU64(real, uint64(g.B1), uint64(h)*uint64(g.B1)>>32))
		t1.Tag[i] = real
	}
	if order.bad != 0 {
		return ErrOrder
	}
	markRuns(t1.Sub, g.Z1, keep)
	for i := range keep {
		keep[i] &= t1.Tag[i] // the dummies' sentinel run is never placed
	}
	spill.CopyPrefix(t1)
	t1.ScatterRuns(keep, g.B1, g.Z1, padKey(uint64(n)), uint64(g.Z1))

	// ---- Tier 2 ----
	// Erase the placed rows of the spill copy, then compact the overflow —
	// the real rows tier 1 did not place — to the front and truncate to the
	// public capacity C2.
	for i := range keep {
		obliv.CondSetU64(keep[i], &spill.Key[i], padKey(uint64(1<<40)+uint64(i)))
		obliv.CondSetU8(keep[i], &spill.Tag[i], 0)
		keep[i] = spill.Tag[i] // from here on: the overflow marks
	}
	obliv.Compact(spill, keep)
	// Any occupied row past C2 is lost: the negligible failure event.
	lost := 0
	for i := g.C2; i < n; i++ {
		lost += int(spill.Tag[i])
	}
	if lost > 0 {
		return fmt.Errorf("%w: tier-2 capacity exceeded by %d", ErrOverflow, lost)
	}

	c := t2.Len()
	t2.CopyPrefix(spill)
	for i := 0; i < c; i++ {
		// Real overflow rows hash into [0,B2); erased rows go to the
		// sentinel bucket B2, selected branch-free.
		_, h := crypt.SipBuckets(t.K, t2.Key[i], g.B1, g.B2)
		t2.Sub[i] = uint32(obliv.SelectU64(t2.Tag[i], uint64(g.B2), uint64(h)))
	}
	obliv.Sort(store.BySubKey{Requests: t2})

	keep = keep[:c]
	markRuns(t2.Sub, g.Z2, keep)
	for i := range keep {
		// Rows in the sentinel bucket are never kept.
		keep[i] &= obliv.LtU64(uint64(t2.Sub[i]), uint64(g.B2))
		lost += int(t2.Tag[i] & obliv.Not(keep[i]))
	}
	if lost > 0 {
		return fmt.Errorf("%w: tier-2 bucket exceeded by %d", ErrOverflow, lost)
	}
	t2.ScatterRuns(keep, g.B2, g.Z2, padKey(1<<41), uint64(g.Z2))
	return nil
}

// Buckets fills b1[i], b2[i] with the tier-1 and tier-2 buckets a lookup of
// ids[i] must scan in full — one hash per identifier, eight identifiers a
// step on a vector body (crypt.SipBucketsN). The bucket indices are a
// function of the per-batch secret hash key and the identifier; revealing
// them is simulatable from public information because the key is fresh and
// each identifier is looked up at most once per batch (paper §5).
func (t *Table) Buckets(ids []uint64, b1, b2 []uint32) {
	crypt.SipBucketsN(t.K, ids, t.Geom.B1, t.Geom.B2, b1, b2)
}

// Extract obliviously recovers the batch's real rows — now carrying
// whatever responses the subORAM scan deposited in them — in the batch's
// own order: ascending by (H, key), followed by vacant rows where the batch
// had its dummies, n rows in all, with Sub holding each resident's H. Each
// tier is compacted in place, which keeps a tier's residents in slot order:
// tier 1's are then already in table order; the at most C2 tier-2 residents
// are sorted by (H, key) and folded in by one merge. Vacant rows take H =
// 2³²−1 and one shared dummy key, so they trail every resident. The table is
// consumed. The result is drawn from the table's arena pool; the caller owns
// it and may release it.
//
// Obliviousness: the compactions, the sort and the merge run fixed schedules
// in the public Geometry; the linear pass touches every row in index order.
func (t *Table) Extract() *store.Requests {
	pool := t.pool
	if pool == nil {
		pool = arena.Default
	}
	g := t.Geom
	n, c := g.N, min(g.C2, g.N)
	marks := pool.GetBits(max(t.Tier1.Len(), t.Tier2.Len()))
	for _, tier := range [2]*store.Requests{t.Tier1, t.Tier2} {
		m := marks[:tier.Len()]
		copy(m, tier.Tag)
		obliv.Compact(tier, m)
	}
	pool.PutBits(marks)
	t.Tier1.Resize(n)
	t.Tier2.Resize(c)

	// The shorter run goes first: MergeSorted reverses its left run.
	out := pool.GetRequests(c+n, t.Tier1.BlockSize)
	out.Rec = t.Tier1.Rec
	out.CopyRowsPlain(0, t.Tier2)
	out.CopyRowsPlain(c, t.Tier1)
	for i := 0; i < c+n; i++ {
		out.Sub[i] = uint32(obliv.SelectU64(out.Tag[i], math.MaxUint32, uint64(Hash(t.K, out.Key[i]))))
		out.Key[i] = obliv.SelectU64(out.Tag[i], padKey(0), out.Key[i])
	}
	out.Resize(c)
	obliv.Sort(store.BySubKey{Requests: out})
	out.Resize(c + n)
	obliv.MergeSorted(store.BySubKey{Requests: out}, []int{c, n})
	out.Resize(n)
	return out
}

// markRuns sets keep[i] = 1 iff the rank of row i within its run of equal
// Sub values is below z. Branch-free: run boundaries and ranks are secret.
func markRuns(sub []uint32, z int, keep []uint8) {
	var cnt uint64
	prev := ^uint64(0)
	for i := range sub {
		s := uint64(sub[i])
		newRun := obliv.NeqU64(s, prev)
		cnt = obliv.SelectU64(newRun, cnt, 0)
		keep[i] = obliv.LtU64(cnt, uint64(z))
		cnt++
		prev = s
	}
}

func padKey(i uint64) uint64 { return store.DummyKeyBit | TableDummyBit | i }
