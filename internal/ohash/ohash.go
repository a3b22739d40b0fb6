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

// Table is a constructed two-tier oblivious hash table over a batch of
// requests. Tier rows use Tag as the occupancy bit (1 = holds a batch
// request) and Sub as the bucket index.
type Table struct {
	Geom Geometry
	// K is the batch's one hash key: a key's tier-1 bucket is the high word
	// of its SipHash under K reduced to [0, B1), its tier-2 bucket the low
	// word reduced to [0, B2) (crypt.SipBuckets).
	K     crypt.SipKey
	Tier1 *store.Requests // Geom.B1 × Geom.Z1 rows, bucket-major
	Tier2 *store.Requests // Geom.B2 × Geom.Z2 rows, bucket-major

	// pool backs Extract's output (arena.Default when zero).
	pool *arena.Pool
}

// Build obliviously constructs a table from a batch of requests with
// distinct keys. The input is not modified. A fresh hash key is sampled per
// call (paper §5: a new key for every batch so the attacker cannot link
// bucket choices across batches).
func Build(reqs *store.Requests, p Params) (*Table, error) {
	return BuildWithKey(reqs, p, crypt.MustNewSipKey())
}

// BuildWithKey is Build with a caller-chosen hash key. It exists so tests
// can fix the key and verify that, the key held equal, the construction and
// scan traces are independent of request contents (the simulator argument
// of §B.5). Production code must use Build.
func BuildWithKey(reqs *store.Requests, p Params, k crypt.SipKey) (*Table, error) {
	return NewBuilder(p).buildWithKey(reqs, k)
}

var errEmptyBatch = fmt.Errorf("ohash: empty batch")

// build runs the oblivious construction in place: t.Tier1 arrives holding
// the n batch rows and t.Tier2 sized for the tier-2 candidates, both zeroed
// through their table size (see Builder); spill and keep are n-row scratch.
// Each tier is "sort the real rows by (bucket, key), mark the first Z of
// every bucket, scatter them to bucket·Z + rank" — the padding slots are
// never sorted, only numbered.
func (t *Table) build(rec *trace.Recorder, spill *store.Requests, keep []uint8) error {
	g := t.Geom
	n := g.N
	t1, t2 := t.Tier1, t.Tier2
	t1.Rec, t2.Rec, spill.Rec = rec, rec, rec

	// ---- Tier 1 ----
	for i := 0; i < n; i++ {
		t1.Sub[i] = crypt.SipBucket(t.K, t1.Key[i], g.B1)
		t1.Tag[i] = 1
	}
	obliv.Sort(store.BySubKey{Requests: t1})
	markRuns(t1.Sub, g.Z1, keep)
	spill.CopyPrefix(t1)
	t1.ScatterRuns(keep, g.B1, g.Z1, padKey(uint64(n)), uint64(g.Z1))

	// ---- Tier 2 ----
	// Erase the placed rows of the spill copy, then compact the overflow to
	// the front and truncate to the public capacity C2.
	for i := range keep {
		obliv.CondSetU64(keep[i], &spill.Key[i], padKey(uint64(1<<40)+uint64(i)))
		obliv.CondSetU8(keep[i], &spill.Tag[i], 0)
		keep[i] ^= 1 // from here on: the overflow marks
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
// ids[i] must scan in full — one hash per identifier. The bucket indices are
// a function of the per-batch secret hash key and the identifier; revealing
// them is simulatable from public information because the key is fresh and
// each identifier is looked up at most once per batch (paper §5).
func (t *Table) Buckets(ids []uint64, b1, b2 []uint32) {
	b1, b2 = b1[:len(ids)], b2[:len(ids)]
	for i, id := range ids {
		b1[i], b2[i] = crypt.SipBuckets(t.K, id, t.Geom.B1, t.Geom.B2)
	}
}

// Extract obliviously recovers exactly the n batch rows — now carrying
// whatever responses the subORAM scan deposited in them — in table order:
// ascending by (tier-1 bucket, key), with Sub holding that bucket. Each tier
// is compacted in place, which keeps a tier's residents in slot order: tier
// 1's are then already in table order; the at most C2 tier-2 residents are
// given their tier-1 bucket again, sorted, and folded in by one merge.
// Vacant rows take the sentinel bucket B1 and one shared key, so they trail
// every resident and the first n merged rows are the batch. The table is
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
	for i := 0; i < c; i++ { // tier-1 rows already carry their bucket
		out.Sub[i] = crypt.SipBucket(t.K, out.Key[i], g.B1)
	}
	for i := 0; i < c+n; i++ {
		out.Sub[i] = uint32(obliv.SelectU64(out.Tag[i], uint64(g.B1), uint64(out.Sub[i])))
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
