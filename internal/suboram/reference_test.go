package suboram

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/trace"
)

// The slot-major scan the run kernel replaced, kept as the oracle: one
// obliv.FusedAccess per slot, object after object, the object block re-read
// and re-written for each. The differential tests below require the
// production scan to leave byte-identical partitions, tables and responses,
// and Rec traces that follow the public pairing rule (refTrace).

func refScanBucket(tier *store.Requests, lo, hi int, id uint64, blk []byte) {
	for sl := lo; sl < hi; sl++ {
		eq := obliv.EqU64(tier.Key[sl], id) & tier.Tag[sl]
		isW := obliv.EqU8(tier.Op[sl], store.OpWrite)
		cw := eq & isW
		cr := eq & obliv.Not(isW)
		obliv.FusedAccess(cw, cr, blk, tier.Block(sl))
		obliv.CondSetU8(eq, &tier.Aux[sl], 1)
	}
}

// refScan is the whole linear pass, single-threaded over a plain partition,
// one hash per object and no stripe.
func refScan(table *ohash.Table, ids []uint64, data []byte, bs int) {
	g := table.Geom
	for i, id := range ids {
		b1, b2 := crypt.SipBuckets(table.K, id, g.B1, g.B2)
		blk := data[i*bs : (i+1)*bs]
		refScanBucket(table.Tier1, int(b1)*g.Z1, int(b1+1)*g.Z1, id, blk)
		refScanBucket(table.Tier2, int(b2)*g.Z2, int(b2+1)*g.Z2, id, blk)
	}
}

// refTrace records what a single worker's scan of n objects touches, in
// the order the public rule fixes: the partition streams in runs of runLen
// objects (its segments; the whole partition in memory), each run in
// stripes of 64 from its start, each stripe in steps of two objects when
// tier 2 is one bucket (an odd stripe ends in a single) and of one
// otherwise. A step touches its objects, then each one's tier-1 bucket, then
// the tier-2 bucket — once for a pair.
func refTrace(table *ohash.Table, ids []uint64, runLen int, rec *trace.Recorder) {
	g, n := table.Geom, len(ids)
	step := 1
	if g.B2 == 1 {
		step = 2
	}
	bucket := func(tier *store.Requests, b, z int) {
		for sl := b * z; sl < (b+1)*z; sl++ {
			tier.Touch(sl)
		}
	}
	for run := 0; run < n; run += runLen {
		for stripe := run; stripe < min(run+runLen, n); stripe += 64 {
			end := min(stripe+64, run+runLen, n)
			for p := stripe; p < end; p += step {
				q := min(p+step, end)
				for i := p; i < q; i++ {
					rec.Record(trace.KindTouch, i, 0)
				}
				for i := p; i < q; i++ {
					b1, _ := crypt.SipBuckets(table.K, ids[i], g.B1, g.B2)
					bucket(table.Tier1, int(b1), g.Z1)
				}
				_, b2 := crypt.SipBuckets(table.K, ids[p], g.B1, g.B2)
				bucket(table.Tier2, int(b2), g.Z2)
			}
		}
	}
}

// refBatchAccess is batchAccessLocked over the reference scan; the scan's
// trace is refTrace's for runs of runLen objects.
func refBatchAccess(t *testing.T, reqs *store.Requests, hp ohash.Params, ids []uint64, data []byte, runLen int) *store.Requests {
	t.Helper()
	table, err := ohash.NewBuilder(hp).Build(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if hp.Rec != nil {
		refTrace(table, ids, runLen, hp.Rec)
	}
	refScan(table, ids, data, reqs.BlockSize)
	out := table.Extract()
	zero := make([]byte, reqs.BlockSize)
	for i := 0; i < out.Len(); i++ {
		obliv.CondCopyBytes(obliv.Not(out.Aux[i]), out.Block(i), zero)
	}
	out.StampKey(table.K)
	return out
}

var refKey = crypt.SipKey{0x0706050403020100, 0x0f0e0d0c0b0a0908}

// ledgerShapes are BENCHMARK.json's four workloads: the padded batch size α
// and the partition size N that together fix the table's shape, and the
// scaled-down partition the suite actually scans so it stays fast.
var ledgerShapes = []struct{ alpha, ledgerObjects, objects int }{
	{128, 1 << 15, 400}, {845, 1 << 9, 512}, {512, 1 << 13, 400}, {122, 1 << 11, 333},
}

const refBlock = 160

// refPartition returns n objects with sparse ids and random contents.
func refPartition(rng *rand.Rand, n int) (ids []uint64, data []byte) {
	ids = make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i*3 + 1)
	}
	data = make([]byte, n*refBlock)
	rng.Read(data)
	return ids, data
}

// refBatch draws alpha distinct requests: about half hit stored objects
// (reads and writes mixed), a quarter name absent keys and a quarter are
// load-balancer dummies.
func refBatch(rng *rand.Rand, alpha int, ids []uint64) *store.Requests {
	reqs := store.NewRequests(alpha, refBlock)
	perm := rng.Perm(len(ids))
	payload := make([]byte, refBlock)
	hits := 0
	for i := 0; i < alpha; i++ {
		var key uint64
		switch i % 4 {
		case 2:
			key = uint64(i)*3 + 2 // ≡ 2 mod 3: never stored
		case 3:
			key = store.DummyKeyBit | uint64(i)
		default:
			key = ids[perm[hits]]
			hits++
		}
		rng.Read(payload)
		reqs.SetRow(i, uint8(rng.Intn(2)), key, 0, uint64(i), uint64(1000+i), payload)
	}
	ohash.Order(reqs, refKey)
	return reqs
}

func requireSameRows(t *testing.T, what string, got, want *store.Requests) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for _, col := range []struct {
		name      string
		got, want interface{}
	}{
		{"Op", got.Op, want.Op}, {"Key", got.Key, want.Key}, {"Sub", got.Sub, want.Sub},
		{"Tag", got.Tag, want.Tag}, {"Aux", got.Aux, want.Aux}, {"Seq", got.Seq, want.Seq},
		{"Client", got.Client, want.Client}, {"Data", got.Data, want.Data},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			t.Fatalf("%s: column %s differs from the slot-major reference", what, col.name)
		}
	}
}

// scanModes are the placements the scan differentials run: in memory with
// one worker and with several (Workers 9 gives every ledger partition odd
// per-worker ranges), sealed (one segment of 512 blocks), and a store whose
// odd segments (seg blocks) end runs mid-pair.
var scanModes = []struct {
	name string
	cfg  Config
	disk bool
	seg  int
}{
	{"plain", Config{}, false, 0},
	{"workers=3", Config{Workers: 3}, false, 0},
	{"workers=9", Config{Workers: 9}, false, 0},
	{"sealed", Config{Sealed: true}, false, 0},
	{"sealed/workers=2", Config{Sealed: true, Workers: 2}, false, 0},
	{"store", Config{}, true, 0},
	{"store/workers=2", Config{Workers: 2}, true, 0},
	{"store/segment=7", Config{}, false, 7},
	{"store/segment=7/workers=2", Config{Workers: 2}, false, 7},
}

// newMode is an empty subORAM in mode m.
func newMode(t *testing.T, cfg Config, disk bool, seg int) *SubORAM {
	t.Helper()
	cfg.BlockSize = refBlock
	switch {
	case disk:
		return newStoreBacked(t, cfg, 1) // Init reformats the store
	case seg > 0:
		cfg.Store, _ = sealedMemory(cfg, seg)
	}
	return New(cfg)
}

// TestScanMatchesSlotMajorReference: in every storage mode and on every
// kernel body this host has (not only the dispatched one), scanning a
// pinned-key table in each ledger workload's own shape — the one
// GeometryFor gives its (α, N): one tier-2 bucket, so pair steps, at all but
// remote_durable's — leaves both tiers (every column, Data and Aux included)
// and the partition byte-identical to the reference scan's, and BatchAccess
// (whose table is shaped for the partition actually loaded) returns the
// reference's rows. Two batches run back to back so the second scans a
// partition the first wrote.
func TestScanMatchesSlotMajorReference(t *testing.T) {
	modes := scanModes
	for _, shape := range ledgerShapes {
		for _, mode := range modes {
			for _, kernel := range obliv.Kernels() {
				t.Run(fmt.Sprintf("alpha=%d/%s/%s", shape.alpha, mode.name, kernel), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(shape.alpha)))
					ids, data := refPartition(rng, shape.objects)
					refData := append([]byte(nil), data...)

					sub := newMode(t, mode.cfg, mode.disk, mode.seg)
					sub.UseKernel(kernel)
					if err := sub.Init(ids, data); err != nil {
						t.Fatal(err)
					}

					// Scan only, in the ledger's shape: compare the tables slot for slot.
					hp := ohash.Params{Objects: shape.ledgerObjects}
					reqs := refBatch(rng, shape.alpha, ids)
					want, err := ohash.NewBuilder(hp).Build(reqs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ohash.NewBuilder(hp).Build(reqs)
					if err != nil {
						t.Fatal(err)
					}
					if ledger := ohash.GeometryFor(shape.alpha, shape.ledgerObjects, 0); got.Geom != ledger {
						t.Fatalf("table shaped %+v, the ledger's is %+v", got.Geom, ledger)
					}
					refScan(want, ids, refData, refBlock)
					if err := sub.scan([]*ohash.Table{got}, &Stats{}); err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, "tier 1", got.Tier1, want.Tier1)
					requireSameRows(t, "tier 2", got.Tier2, want.Tier2)
					if found := bytes.Count(want.Tier1.Aux, []byte{1}) + bytes.Count(want.Tier2.Aux, []byte{1}); found == 0 {
						t.Fatal("no request matched an object — the comparison is vacuous")
					}

					// Whole batch, over the partition the scan above wrote.
					hp.Objects = len(ids)
					reqs = refBatch(rng, shape.alpha, ids)
					wantOut := refBatchAccess(t, reqs, hp, ids, refData, len(ids))
					gotOut, err := sub.BatchAccess(reqs)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, "BatchAccess", gotOut, wantOut)

					_, gotData, err := sub.Export()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotData, refData) {
						t.Fatal("partition bytes differ from the slot-major reference")
					}
				})
			}
		}
	}
}

// TestScanTraceMatchesSlotMajorReference: on every kernel body, the Rec
// trace of a whole batch over a partition in memory (build, the scan's
// touches, extraction) is the reference's event for event — the scan's in
// the order of the public pairing rule (refTrace) — and does not move when
// the batch's secret contents — keys, ops, payloads, hit pattern — change.
func TestScanTraceMatchesSlotMajorReference(t *testing.T) {
	for _, shape := range ledgerShapes {
		for _, kernel := range obliv.Kernels() {
			t.Run(fmt.Sprintf("alpha=%d/%s", shape.alpha, kernel), func(t *testing.T) {
				checkTrace(t, shape.alpha, shape.objects, Config{}, 0, kernel)
			})
		}
	}
}

// TestStoreScanTraceMatchesReference is the same over the sealed placement
// (one 512-block segment) and a store of 7-block segments, whose runs end
// mid-pair.
func TestStoreScanTraceMatchesReference(t *testing.T) {
	for _, shape := range ledgerShapes {
		for _, mode := range []struct {
			name string
			cfg  Config
			seg  int
		}{{"sealed", Config{Sealed: true}, 0}, {"store/segment=7", Config{}, 7}} {
			for _, kernel := range obliv.Kernels() {
				t.Run(fmt.Sprintf("alpha=%d/%s/%s", shape.alpha, mode.name, kernel), func(t *testing.T) {
					checkTrace(t, shape.alpha, shape.objects, mode.cfg, mode.seg, kernel)
				})
			}
		}
	}
}

// checkTrace runs three batches of alpha requests over a partition of n
// objects, placed by cfg (a store of seg-block segments if seg > 0), and
// compares each Rec trace with the reference's and with the first.
func checkTrace(t *testing.T, alpha, n int, cfg Config, seg int, kernel string) {
	t.Helper()
	runLen := n
	if seg > 0 {
		runLen = seg
	}
	rng := rand.New(rand.NewSource(int64(alpha) + 7))
	ids, data := refPartition(rng, n)
	var first *trace.Recorder
	for round := 0; round < 3; round++ {
		reqs := refBatch(rng, alpha, ids)

		recRef := trace.New()
		hp := ohash.Params{Objects: len(ids), Rec: recRef}
		refBatchAccess(t, reqs, hp, ids, append([]byte(nil), data...), runLen)

		rec := trace.New()
		cfg.Rec = rec
		sub := newMode(t, cfg, false, seg)
		sub.UseKernel(kernel)
		if err := sub.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.BatchAccess(reqs); err != nil {
			t.Fatal(err)
		}
		if rec.Count() == 0 || !trace.Equal(rec, recRef) {
			t.Fatalf("round %d: trace (%d events) differs from the reference (%d events)",
				round, rec.Count(), recRef.Count())
		}
		if first == nil {
			first = rec
		} else if !trace.Equal(rec, first) {
			t.Fatalf("round %d: trace depends on batch contents", round)
		}
	}
}
