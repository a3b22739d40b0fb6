package ohash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/trace"
	"snoopy/internal/wirecode"
)

// legacyGeometry is the shape every table had before GeometryFor chose it:
// tier-1 buckets of 8 at mean load 4, tier-2 capacity max(64, ⌈n/8⌉) spread
// at mean load 1 over buckets sized by the Theorem-3 Chernoff bound — a
// function of the batch size alone. Kept as the reference shape the
// differentials run the construction, the scan and the whole system under.
func legacyGeometry(n, lambda int) Geometry {
	g := Geometry{N: n, Z1: 8, B1: max((n+3)/4, 1), C2: max(64, (n+7)/8)}
	g.B2 = g.C2
	g.Z2 = batch.Size(g.C2, g.B2, lambda)
	return g
}

// withGeometry makes b build its next table for g.N rows in shape g, by
// seeding the memo GeometryFor's answer would have gone into.
func withGeometry(b *Builder, g Geometry) *Builder {
	b.geoms[g.N] = g
	return b
}

// buildInShape builds reqs, put in table order under k, in shape g.
func buildInShape(reqs *store.Requests, g Geometry, k crypt.SipKey) (*Table, error) {
	return withGeometry(NewBuilder(Params{}), g).Build(ordered(reqs, k))
}

// oneHash and twoKeys are the two placements the reference construction can
// run under: both buckets of a key from one SipHash under k1 (what the
// package builds), or tier 1 under k1 and tier 2 under an independent k2 (the
// construction before it, kept as the differential's other side).
func oneHash(g Geometry, k crypt.SipKey) func(uint64) (uint32, uint32) {
	return func(key uint64) (uint32, uint32) { return crypt.SipBuckets(k, key, g.B1, g.B2) }
}

func twoKeys(g Geometry, k1, k2 crypt.SipKey) func(uint64) (uint32, uint32) {
	return func(key uint64) (uint32, uint32) {
		return crypt.SipBucket(k1, key, g.B1), crypt.SipBucket(k2, key, g.B2)
	}
}

// refBuild is the construction this package used before the load balancer
// sent its batches in table order: every tier materializes Z padding rows
// per bucket next to the real rows, sorts the lot — tier 1 by (bucket, H,
// key), tier 2 by (bucket, key) — keeps the first Z of each bucket and
// compacts. Kept as the specification the sort-free construction must
// reproduce byte for byte, in any geometry (tier-2 padding keys count from
// 1<<41, as the scatter's do). The batch is put in table order under k1 and
// stamped with it first; its dummies take no slot. place gives a key's two
// buckets; k1 is recorded as the table's key (Extract's order).
func refBuild(reqs *store.Requests, g Geometry, k1 crypt.SipKey, place func(uint64) (uint32, uint32)) (*Table, error) {
	reqs = ordered(reqs, k1)
	n := reqs.Len()
	t := &Table{Geom: g, K: k1}
	t.Tier1 = store.NewRequests(g.B1*g.Z1, reqs.BlockSize)
	t.Tier2 = store.NewRequests(g.B2*g.Z2, reqs.BlockSize)
	work := store.NewRequests(n+g.B1*g.Z1, reqs.BlockSize)
	spill := store.NewRequests(work.Len(), reqs.BlockSize)
	work2 := store.NewRequests(min(g.C2, work.Len())+g.B2*g.Z2, reqs.BlockSize)
	keep := make([]uint8, work.Len())
	over := make([]uint8, work.Len())
	keep2 := make([]uint8, work2.Len())

	// ---- Tier 1 ----
	for i := 0; i < n; i++ {
		work.CopyRowPlain(i, reqs, i)
		work.Sub[i], _ = place(work.Key[i])
		work.Tag[i] = 1
		if store.IsDummyKey(work.Key[i]) {
			work.Sub[i], work.Tag[i] = uint32(g.B1), 0
		}
	}
	d := n
	for b := 0; b < g.B1; b++ {
		for z := 0; z < g.Z1; z++ {
			work.SetRow(d, store.OpRead, padKey(uint64(d)), uint32(b), 0, 0, nil)
			d++
		}
	}
	// Tier-1 order: by bucket, then real rows by (H, key), padding by key.
	rank := make([]uint64, work.Len())
	for i := range rank {
		pad := store.DummyMark(work.Key[i])
		rank[i] = uint64(work.Sub[i])<<33 | obliv.SelectU64(pad, uint64(Hash(k1, work.Key[i])), 1<<32)
	}
	obliv.Sort(store.ByRank{Requests: work, Rank: rank})
	markRuns(work.Sub, g.Z1, keep)
	for i := range over {
		keep[i] &= obliv.LtU64(uint64(work.Sub[i]), uint64(g.B1))
		over[i] = work.Tag[i] & obliv.Not(keep[i])
	}
	spill.CopyPrefix(work)
	obliv.Compact(work, keep)
	t.Tier1.CopyPrefix(work)

	// ---- Tier 2 ----
	for i := 0; i < spill.Len(); i++ {
		notOv := obliv.Not(over[i])
		obliv.CondSetU64(notOv, &spill.Key[i], padKey(uint64(1<<40)+uint64(i)))
		obliv.CondSetU8(notOv, &spill.Tag[i], 0)
	}
	obliv.Compact(spill, over)
	lost := 0
	for i := g.C2; i < spill.Len(); i++ {
		lost += int(spill.Tag[i])
	}
	if lost > 0 {
		return nil, fmt.Errorf("%w: tier-2 capacity exceeded by %d", ErrOverflow, lost)
	}
	cand := spill.View(0, min(g.C2, spill.Len()))
	for i := 0; i < cand.Len(); i++ {
		work2.CopyRowPlain(i, cand, i)
		_, h := place(work2.Key[i])
		work2.Sub[i] = uint32(obliv.SelectU64(work2.Tag[i], uint64(g.B2), uint64(h)))
	}
	d = cand.Len()
	for b := 0; b < g.B2; b++ {
		for z := 0; z < g.Z2; z++ {
			work2.SetRow(d, store.OpRead, padKey(uint64(1<<41)+uint64(d-cand.Len())), uint32(b), 0, 0, nil)
			d++
		}
	}
	obliv.Sort(store.BySubKey{Requests: work2})
	markRuns(work2.Sub, g.Z2, keep2)
	lost = 0
	for i := range keep2 {
		keep2[i] &= obliv.LtU64(uint64(work2.Sub[i]), uint64(g.B2))
		lost += int(work2.Tag[i] & obliv.Not(keep2[i]))
	}
	if lost > 0 {
		return nil, fmt.Errorf("%w: tier-2 bucket exceeded by %d", ErrOverflow, lost)
	}
	obliv.Compact(work2, keep2)
	t.Tier2.CopyPrefix(work2)
	return t, nil
}

// sameRows fails unless a and b are byte-identical: same block size, same
// record count, every column of every record — compared in wire form.
func sameRows(t *testing.T, what string, a, b *store.Requests) {
	t.Helper()
	if !bytes.Equal(wirecode.AppendRequests(nil, a), wirecode.AppendRequests(nil, b)) {
		t.Fatalf("%s: records differ\n got keys %x\nwant keys %x", what, a.Key, b.Key)
	}
}

// withDummies turns the last d rows of reqs into load-balancer dummies
// (numbered as the load balancer numbers them) and puts the batch back in
// table order under k.
func withDummies(reqs *store.Requests, d int, k crypt.SipKey) *store.Requests {
	for j, i := 0, reqs.Len()-d; i < reqs.Len(); i, j = i+1, j+1 {
		reqs.SetRow(i, store.OpRead, store.DummyKeyBit|uint64(j), 0, 0, 0, nil)
	}
	Order(reqs, k)
	return reqs
}

// ledgerShapes are the (batch size, partition size) of BENCHMARK.json's four
// workloads: scan_heavy, batch_heavy, remote_durable, open_mixed.
var ledgerShapes = [][2]int{{128, 1 << 15}, {845, 1 << 9}, {512, 1 << 13}, {122, 1 << 11}}

// TestBuildMatchesPadAndSortReference: the hash key held equal, the sort-free
// construction and the pad-and-sort one produce byte-identical tiers — same
// occupied slots, same padding-key numbering — and so identical extracts,
// for batches in load-balancer order with up to half their rows dummies,
// through a reused Builder whose scratch shrinks and grows between batches,
// in the shapes GeometryFor gives a batch against no partition, a small one
// and a large one (at λ = 128 and 40), in every ledger shape, and in the
// legacy shape.
func TestBuildMatchesPadAndSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	b := NewBuilder(Params{})
	sizes := []int{1, 2, 4, 5, 16, 17, 121, 122, 127, 128, 844, 845, 511, 512, 513}
	for trial := 0; trial < 20; trial++ {
		sizes = append(sizes, 1+rng.Intn(1200))
	}
	for _, n := range sizes {
		reqs := withDummies(makeBatch(rng, n, 24), rng.Intn(n/2+1), crypt.SipKey{1, 1})
		for i := 0; i < n; i++ {
			reqs.Aux[i] = uint8(rng.Intn(2))
			rng.Read(reqs.Block(i))
		}
		shapes := []Geometry{
			GeometryFor(n, 0, 128), GeometryFor(n, n, 128), GeometryFor(n, 64*n, 128), GeometryFor(n, n, 40), legacyGeometry(n, 128),
		}
		for _, l := range ledgerShapes {
			if l[0] == n {
				shapes = append(shapes, GeometryFor(n, l[1], 128))
			}
		}
		for _, g := range shapes {
			k := crypt.MustNewSipKey()
			want, err := refBuild(reqs, g, k, oneHash(g, k))
			if err != nil {
				t.Fatalf("%+v: reference: %v", g, err)
			}
			got, err := withGeometry(b, g).Build(ordered(reqs, k))
			if err != nil {
				t.Fatalf("%+v: %v", g, err)
			}
			if got.Geom != g {
				t.Fatalf("built %+v, asked for %+v", got.Geom, g)
			}
			sameRows(t, fmt.Sprintf("%+v tier 1", g), got.Tier1, want.Tier1)
			sameRows(t, fmt.Sprintf("%+v tier 2", g), got.Tier2, want.Tier2)
			sameRows(t, fmt.Sprintf("%+v extracted", g), got.Extract(), want.Extract())
		}
	}
}

// TestOneHashMovesOnlyTier2Residents is the differential against the
// two-key construction the one-hash placement replaced: with the tier-1 key
// held equal, tier 1 is byte-identical, tier 2 holds exactly the same rows —
// only in other buckets — and what Extract returns (table order is tier 1's)
// is byte-identical again, so nothing outside the table can tell the two
// apart.
func TestOneHashMovesOnlyTier2Residents(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	moved := 0
	shapes := []Geometry{legacyGeometry(845, 128), legacyGeometry(2000, 128)} // loaded tier 1, many tier-2 buckets
	for _, s := range append(ledgerShapes, [2]int{1024, 1 << 20}, [2]int{2048, 1 << 13}) {
		shapes = append(shapes, GeometryFor(s[0], s[1], 128))
	}
	for _, g := range shapes {
		reqs := makeBatch(rng, g.N, 24)
		k1, k2 := crypt.MustNewSipKey(), crypt.MustNewSipKey()
		old, err := refBuild(reqs, g, k1, twoKeys(g, k1, k2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := buildInShape(reqs, g, k1)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("%+v tier 1", g), got.Tier1, old.Tier1)
		residents := func(tbl *Table) map[uint64]int {
			at := map[uint64]int{}
			for i, tag := range tbl.Tier2.Tag {
				if tag == 1 {
					at[tbl.Tier2.Key[i]] = i / g.Z2
				}
			}
			return at
		}
		was, is := residents(old), residents(got)
		if len(was) != len(is) {
			t.Fatalf("%+v: tier 2 holds %d rows, the two-key construction's %d", g, len(is), len(was))
		}
		for key, b := range was {
			b2, ok := is[key]
			if !ok {
				t.Fatalf("%+v: key %d left tier 2", g, key)
			}
			if _, want := crypt.SipBuckets(k1, key, g.B1, g.B2); b2 != int(want) {
				t.Fatalf("%+v: key %d in tier-2 bucket %d, its hash's low word says %d", g, key, b2, want)
			}
			if b2 != b {
				moved++
			}
		}
		sameRows(t, fmt.Sprintf("%+v extracted", g), got.Extract(), old.Extract())
	}
	if moved < 10 {
		t.Fatalf("only %d tier-2 residents changed bucket: the comparison is vacuous", moved)
	}
}

// crafted builds a batch whose keys land where the test wants them under
// a fixed hash key: counts[b] keys in tier-1 bucket b, of which the ones that
// overflow (a bucket keeps its Z1 first in table order) additionally satisfy
// tier2 when it is non-nil. Kept keys hash to the lower half of their
// bucket's range of H, overflowing ones to the upper half.
func crafted(t *testing.T, g Geometry, k crypt.SipKey, counts []int, tier2 func(b2 uint32) bool) *store.Requests {
	t.Helper()
	n := 0
	for _, c := range counts {
		n += c
	}
	if len(counts) != g.B1 || n != g.N {
		t.Fatalf("crafted: %d keys in %d buckets for %+v", n, len(counts), g)
	}
	reqs := store.NewRequests(n, 8)
	kept, spilt := make([]int, g.B1), make([]int, g.B1)
	row := 0
	for key := uint64(1); row < n; key++ {
		if key > 1<<24 {
			t.Fatal("crafted: key search exhausted")
		}
		b, b2 := crypt.SipBuckets(k, key, g.B1, g.B2)
		upper := uint64(Hash(k, key))*uint64(2*g.B1)>>32 == uint64(2*b+1)
		switch {
		case !upper && kept[b] < min(counts[b], g.Z1):
			kept[b]++
		case upper && spilt[b] < counts[b]-g.Z1 && (tier2 == nil || tier2(b2)):
			spilt[b]++
		default:
			continue
		}
		reqs.SetRow(row, store.OpWrite, key, 0, 0, 0, []byte{byte(key)})
		row++
	}
	Order(reqs, k)
	return reqs
}

// overflowing returns bucket counts for g.N keys of which exactly c overflow
// tier 1: the leading buckets take 2·Z1 keys each (Z1 spill) until c is
// reached, the rest of the batch fills the trailing buckets to at most Z1.
func overflowing(t *testing.T, g Geometry, c int) []int {
	t.Helper()
	counts := make([]int, g.B1)
	rest := g.N
	b := 0
	for ; c > 0; b++ {
		spill := min(c, g.Z1)
		counts[b] = g.Z1 + spill
		c -= spill
		rest -= counts[b]
	}
	for last := g.B1 - 1; rest > 0 && last >= b; last-- {
		counts[last] = min(rest, g.Z1)
		rest -= counts[last]
	}
	if rest != 0 {
		t.Fatalf("overflowing: %+v cannot spill that many rows (%d keys left over)", g, rest)
	}
	return counts
}

// occupied counts the batch rows in rows[lo:hi).
func occupied(rows *store.Requests, lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		c += int(rows.Tag[i])
	}
	return c
}

// pinShapes are the (α, N) the boundary pins are derived at: one table the
// scan shapes (many small tier-1 buckets) and one the build shapes (few
// large ones).
var pinShapes = []struct {
	name           string
	alpha, objects int
}{{"scan-shaped", 128, 1 << 15}, {"table-shaped", 845, 1 << 9}}

// TestTier1BucketBoundary pins the tier-1 edge in the shapes GeometryFor
// picks: a bucket offered exactly Z1 keys keeps them all; offered Z1+1 it
// keeps its Z1 first in table order and spills exactly the last into tier
// 2. Both agree with the reference.
func TestTier1BucketBoundary(t *testing.T) {
	k := crypt.SipKey{1, 2}
	for _, shape := range pinShapes {
		g := GeometryFor(shape.alpha, shape.objects, 128)
		for _, extra := range []int{0, 1} {
			// One bucket at Z1 + extra; nothing else overflows.
			counts := overflowing(t, Geometry{N: g.N - g.Z1 - extra, B1: g.B1 - 1, Z1: g.Z1}, 0)
			counts = append([]int{g.Z1 + extra}, counts...)
			reqs := crafted(t, g, k, counts, nil)
			tbl, err := buildInShape(reqs, g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := occupied(tbl.Tier1, 0, g.Z1); got != g.Z1 {
				t.Fatalf("%s extra=%d: bucket 0 holds %d rows, want %d", shape.name, extra, got, g.Z1)
			}
			if got := occupied(tbl.Tier2, 0, tbl.Tier2.Len()); got != extra {
				t.Fatalf("%s extra=%d: tier 2 holds %d rows, want %d", shape.name, extra, got, extra)
			}
			if extra == 1 {
				var last uint64
				var lastH uint32
				for i := 0; i < reqs.Len(); i++ {
					if h := Hash(k, reqs.Key[i]); crypt.SipBucket(k, reqs.Key[i], g.B1) == 0 && h >= lastH {
						last, lastH = reqs.Key[i], h
					}
				}
				if c, tier, _ := findKey(tbl, last); c != 1 || tier != 2 {
					t.Fatalf("%s: bucket 0's last key %d: found %d times, tier %d; want once in tier 2", shape.name, last, c, tier)
				}
			}
			want, err := refBuild(reqs, g, k, oneHash(g, k))
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, shape.name+" tier 1", tbl.Tier1, want.Tier1)
			sameRows(t, shape.name+" tier 2", tbl.Tier2, want.Tier2)
		}
	}
}

// TestTier2Boundaries pins the tier-2 edges in the shapes GeometryFor picks
// (at λ = 8, so Z2+1 colliding keys are cheap to find): exactly C2 overflow
// rows place, C2+1 is ErrOverflow (capacity); Z2 overflow rows in one
// tier-2 bucket place, Z2+1 is ErrOverflow (bucket). The reference fails
// identically.
func TestTier2Boundaries(t *testing.T) {
	k := crypt.SipKey{5, 6}
	for _, shape := range pinShapes {
		g := GeometryFor(shape.alpha, shape.objects, 8)
		if g.B2 < 2 || g.Z2 >= g.C2 {
			t.Fatalf("%s: geometry moved under the test: %+v", shape.name, g)
		}
		check := func(name string, reqs *store.Requests, wantOccupied int, wantErr string) {
			t.Helper()
			tbl, err := buildInShape(reqs, g, k)
			_, refErr := refBuild(reqs, g, k, oneHash(g, k))
			if wantErr == "" {
				if err != nil || refErr != nil {
					t.Fatalf("%s %s: err %v, reference %v; want both nil", shape.name, name, err, refErr)
				}
				if got := occupied(tbl.Tier2, 0, tbl.Tier2.Len()); got != wantOccupied {
					t.Fatalf("%s %s: tier 2 holds %d rows, want %d", shape.name, name, got, wantOccupied)
				}
				return
			}
			if !errors.Is(err, ErrOverflow) || err.Error() != refErr.Error() || err.Error() != "ohash: hash table overflow: "+wantErr {
				t.Fatalf("%s %s: err %q, reference %q; want ErrOverflow %q", shape.name, name, err, refErr, wantErr)
			}
		}
		// Spread the overflow rows over tier 2 so only the capacity binds: no
		// tier-2 bucket may be offered more than Z2 of them.
		load := make([]int, g.B2)
		spread := func(b2 uint32) bool {
			if load[b2] == g.Z2 {
				return false
			}
			load[b2]++
			return true
		}
		check("C2 overflow rows", crafted(t, g, k, overflowing(t, g, g.C2), spread), g.C2, "")
		clear(load)
		check("C2+1 overflow rows", crafted(t, g, k, overflowing(t, g, g.C2+1), spread), 0,
			"tier-2 capacity exceeded by 1")
		// Aim every overflow row at the last tier-2 bucket.
		one := func(b2 uint32) bool { return int(b2) == g.B2-1 }
		check("Z2 rows in one tier-2 bucket", crafted(t, g, k, overflowing(t, g, g.Z2), one), g.Z2, "")
		check("Z2+1 rows in one tier-2 bucket", crafted(t, g, k, overflowing(t, g, g.Z2+1), one), 0,
			"tier-2 bucket exceeded by 1")
	}
}

// TestBuildCostCountsTheBuild pins Geometry.BuildCost/ExtractCost to the
// implementation: the recorder sees exactly that many row swaps, plus the
// linear passes (one clear per sorted row, one touch per table slot) — at
// the four ledger shapes, the smallest batches and the legacy shape.
func TestBuildCostCountsTheBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	shapes := []Geometry{GeometryFor(1, 0, 128), GeometryFor(9, 100, 128), legacyGeometry(845, 128)}
	for _, s := range ledgerShapes {
		shapes = append(shapes, GeometryFor(s[0], s[1], 128))
	}
	for _, g := range shapes {
		rec := trace.New()
		tbl, err := withGeometry(NewBuilder(Params{Rec: rec}), g).Build(makeBatch(rng, g.N, 8))
		if err != nil {
			t.Fatal(err)
		}
		linear := g.N + g.B1*g.Z1 + min(g.C2, g.N) + g.B2*g.Z2
		if got, want := rec.Count(), uint64(g.BuildCost()+linear); got != want {
			t.Fatalf("%+v: build recorded %d events, BuildCost+linear says %d", g, got, want)
		}
		before := rec.Count()
		tbl.Extract()
		if got, want := rec.Count()-before, uint64(g.ExtractCost()); got != want {
			t.Fatalf("%+v: extract recorded %d events, ExtractCost says %d", g, got, want)
		}
	}
}

// refExtract is the copy-then-compact extraction this package used before
// Extract answered in table order: both tiers copied whole into one record
// set, one compaction by occupancy over the B1·Z1 + B2·Z2 rows. It leaves
// the tiers intact and the residents in slot order (tier 1's, then tier
// 2's) — the specification of *which* rows Extract must return.
func refExtract(t *Table) *store.Requests {
	n1, n2 := t.Tier1.Len(), t.Tier2.Len()
	all := store.NewRequests(n1+n2, t.Tier1.BlockSize)
	all.CopyRowsPlain(0, t.Tier1)
	all.CopyRowsPlain(n1, t.Tier2)
	obliv.Compact(all, append([]uint8(nil), all.Tag...))
	all.Resize(occupied(all, 0, all.Len()))
	return all
}

// requireTableOrder fails unless got is exactly the reference's residents —
// every column but Sub, Data included — ascending by (H, key) with Sub
// holding H, then vacant rows (Tag 0, H and key past every resident's) up
// to the table's batch size.
func requireTableOrder(t *testing.T, what string, tbl *Table, got, ref *store.Requests) {
	t.Helper()
	if got.Len() != tbl.Geom.N {
		t.Fatalf("%s: %d rows, the batch has %d", what, got.Len(), tbl.Geom.N)
	}
	idx := make([]int, ref.Len())
	for i := range idx {
		idx[i] = i
	}
	hash := func(i int) uint32 { return Hash(tbl.K, ref.Key[i]) }
	sort.Slice(idx, func(a, b int) bool {
		if ha, hb := hash(idx[a]), hash(idx[b]); ha != hb {
			return ha < hb
		}
		return ref.Key[idx[a]] < ref.Key[idx[b]]
	})
	want := store.NewRequests(ref.Len(), ref.BlockSize)
	for i, j := range idx {
		want.CopyRowPlain(i, ref, j)
		want.Sub[i] = hash(j)
	}
	sameRows(t, what, got.View(0, ref.Len()), want)
	for i := ref.Len(); i < got.Len(); i++ {
		if got.Tag[i] != 0 || got.Sub[i] != 1<<32-1 || got.Key[i] != padKey(0) {
			t.Fatalf("%s: row %d (tag %d, H %#x, key %#x) is not vacant", what, i, got.Tag[i], got.Sub[i], got.Key[i])
		}
	}
}

// TestExtractMatchesCopyThenCompactInTableOrder: Extract returns exactly the
// rows the copy-then-compact extraction does — carrying what a scan left in
// Data and Aux — sorted by (H, key), then vacant rows, for batches crafted
// under a fixed key to put 0, 1 and C2 rows in tier 2 and to fill a tier-1
// bucket to Z1 and Z1+1, and for random batches, with and without
// load-balancer dummies, through a reused Builder.
func TestExtractMatchesCopyThenCompactInTableOrder(t *testing.T) {
	k := crypt.SipKey{5, 6}
	rng := rand.New(rand.NewSource(63))
	check := func(what string, tier2Rows int, build func() (*Table, error)) {
		t.Helper()
		tbl, err := build()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tier2Rows >= 0 && occupied(tbl.Tier2, 0, tbl.Tier2.Len()) != tier2Rows {
			t.Fatalf("%s: tier 2 holds %d rows, crafted for %d", what, occupied(tbl.Tier2, 0, tbl.Tier2.Len()), tier2Rows)
		}
		for _, tier := range []*store.Requests{tbl.Tier1, tbl.Tier2} { // a scan's leavings
			rng.Read(tier.Data)
			for i := range tier.Aux {
				tier.Aux[i] = uint8(rng.Intn(2))
			}
		}
		ref := refExtract(tbl)
		requireTableOrder(t, what, tbl, tbl.Extract(), ref)
	}
	shapes := []Geometry{legacyGeometry(200, 128)}
	for _, shape := range pinShapes {
		shapes = append(shapes, GeometryFor(shape.alpha, shape.objects, 128))
	}
	for _, g := range shapes {
		for _, c := range []struct {
			what  string
			spill int
		}{{"no tier-2 rows", 0}, {"one tier-2 row", 1}, {"C2 tier-2 rows", g.C2}} {
			reqs := crafted(t, g, k, overflowing(t, g, c.spill), nil)
			check(fmt.Sprintf("%+v: %s", g, c.what), c.spill, func() (*Table, error) { return buildInShape(reqs, g, k) })
		}
	}

	b := NewBuilder(Params{Objects: 4096})
	for _, n := range []int{1, 2, 9, 127, 128, 845, 300, 1200} {
		for _, dummies := range []int{0, n / 3} {
			reqs := withDummies(makeBatch(rng, n, 24), dummies, crypt.SipKey{uint64(n), 9})
			check(fmt.Sprintf("n=%d, %d dummies, reused builder", n, dummies), -1, func() (*Table, error) { return b.Build(reqs) })
		}
	}
}

// TestExtractQuick: for random batch sizes, keys and hash keys, the
// extracted rows are the batch, in table order.
func TestExtractQuick(t *testing.T) {
	f := func(seed int64, size uint16, k crypt.SipKey) bool {
		rng := rand.New(rand.NewSource(seed))
		k[0] |= 1
		reqs := ordered(makeBatch(rng, 1+int(size)%700, 8), k)
		tbl, err := build(reqs, DefaultParams())
		if err != nil {
			return errors.Is(err, ErrOverflow) // negligible, but not a wrong answer
		}
		return extractedInOrder(tbl, reqs, tbl.Extract())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// extractedInOrder reports whether out holds exactly reqs' rows (by key →
// seq, op, first data byte), in reqs' order, with Sub = H — the batch as
// sent, without dummies.
func extractedInOrder(tbl *Table, reqs, out *store.Requests) bool {
	if out.Len() != reqs.Len() {
		return false
	}
	type row struct {
		seq uint64
		op  uint8
		d   byte
	}
	want := make(map[uint64]row, reqs.Len())
	for i := 0; i < reqs.Len(); i++ {
		want[reqs.Key[i]] = row{reqs.Seq[i], reqs.Op[i], reqs.Block(i)[0]}
	}
	for i := 0; i < out.Len(); i++ {
		w, ok := want[out.Key[i]]
		if !ok || w != (row{out.Seq[i], out.Op[i], out.Block(i)[0]}) || out.Tag[i] != 1 {
			return false
		}
		delete(want, out.Key[i])
		if out.Sub[i] != Hash(tbl.K, out.Key[i]) || out.Key[i] != reqs.Key[i] {
			return false
		}
	}
	return true
}

// FuzzExtractTableOrder drives the same property from fuzzed key bytes:
// distinct keys decoded from the input, a hash key from its head.
func FuzzExtractTableOrder(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint64(1), uint64(2))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 200), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, k0, k1 uint64) {
		seen := map[uint64]bool{}
		reqs := store.NewRequests(len(raw)/2, 8)
		n := 0
		for i := 0; i+1 < len(raw); i += 2 {
			key := uint64(raw[i])<<8 | uint64(raw[i+1])
			if seen[key] {
				continue
			}
			seen[key] = true
			reqs.SetRow(n, raw[i]&1, key, 0, uint64(n), uint64(n), []byte{raw[i+1]})
			n++
		}
		if n == 0 {
			return
		}
		reqs.Resize(n)
		if k0|k1 == 0 {
			k0 = 1
		}
		Order(reqs, crypt.SipKey{k0, k1})
		tbl, err := build(reqs, DefaultParams())
		if err != nil {
			if errors.Is(err, ErrOverflow) {
				return
			}
			t.Fatal(err)
		}
		if !extractedInOrder(tbl, reqs, tbl.Extract()) {
			t.Fatalf("extraction of %d keys under (%#x,%#x) is not the batch in table order", n, k0, k1)
		}
	})
}

// TestExtractTraceIsPublic: the Rec trace of Extract is a function of the
// Geometry alone — batch contents, hash keys and what the scan wrote all
// vary, the trace does not.
func TestExtractTraceIsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 9, 120, 845} {
		var first *trace.Recorder
		for trial := 0; trial < 3; trial++ {
			tbl, err := build(makeBatch(rng, n, 8), DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(tbl.Tier1.Data)
			rec := trace.New()
			tbl.Tier1.Rec, tbl.Tier2.Rec = rec, rec
			tbl.Extract()
			if rec.Count() != uint64(tbl.Geom.ExtractCost()) {
				t.Fatalf("n=%d: %d events, ExtractCost says %d", n, rec.Count(), tbl.Geom.ExtractCost())
			}
			if first == nil {
				first = rec
			} else if !trace.Equal(first, rec) {
				t.Fatalf("n=%d trial %d: Extract trace depends on secrets", n, trial)
			}
		}
	}
}
