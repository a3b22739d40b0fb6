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

// The slot-major scan the chunk-major kernel replaced, kept as the oracle:
// one obliv.FusedAccess per slot, the object block re-read and re-written
// for each. The differential tests below require the production scan to
// leave byte-identical partitions, tables, responses and Rec traces.

func refScanBucket(tier *store.Requests, lo, hi int, id uint64, blk []byte) {
	for sl := lo; sl < hi; sl++ {
		tier.Touch(sl)
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
func refScan(table *ohash.Table, ids []uint64, data []byte, bs int, rec *trace.Recorder) {
	g := table.Geom
	for i, id := range ids {
		rec.Record(trace.KindTouch, i, 0)
		b1, b2 := crypt.SipBuckets(table.K, id, g.B1, g.B2)
		blk := data[i*bs : (i+1)*bs]
		refScanBucket(table.Tier1, int(b1)*g.Z1, int(b1+1)*g.Z1, id, blk)
		refScanBucket(table.Tier2, int(b2)*g.Z2, int(b2+1)*g.Z2, id, blk)
	}
}

// refBatchAccess is batchAccessLocked over the reference scan.
func refBatchAccess(t *testing.T, reqs *store.Requests, hp ohash.Params, ids []uint64, data []byte) *store.Requests {
	t.Helper()
	table, err := ohash.NewBuilder(hp).Build(reqs)
	if err != nil {
		t.Fatal(err)
	}
	refScan(table, ids, data, reqs.BlockSize, hp.Rec)
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

// TestScanMatchesSlotMajorReference: in every storage mode and on every
// kernel body this host has (not only the dispatched one), scanning a
// pinned-key table in each ledger workload's own shape — the one
// GeometryFor gives its (α, N) — leaves both tiers (every column, Data and
// Aux included) and the partition byte-identical to the reference scan's,
// and BatchAccess (whose table is shaped for the partition actually loaded)
// returns the reference's rows. Two batches run back to back so the second
// scans a partition the first wrote.
func TestScanMatchesSlotMajorReference(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
		disk bool
	}{
		{"plain", Config{}, false},
		{"workers=3", Config{Workers: 3}, false},
		{"sealed", Config{Sealed: true}, false},
		{"sealed/workers=2", Config{Sealed: true, Workers: 2}, false},
		{"store", Config{}, true},
		{"store/workers=2", Config{Workers: 2}, true},
	}
	for _, shape := range ledgerShapes {
		for _, mode := range modes {
			for _, kernel := range obliv.Kernels() {
				t.Run(fmt.Sprintf("alpha=%d/%s/%s", shape.alpha, mode.name, kernel), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(shape.alpha)))
					ids, data := refPartition(rng, shape.objects)
					refData := append([]byte(nil), data...)

					cfg := mode.cfg
					cfg.BlockSize = refBlock
					var sub *SubORAM
					if mode.disk {
						sub = newStoreBacked(t, cfg, 1) // Init below reformats the store
					} else {
						sub = New(cfg)
					}
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
					refScan(want, ids, refData, refBlock, nil)
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
					wantOut := refBatchAccess(t, reqs, hp, ids, refData)
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
// trace of a whole batch (build, one KindTouch per object then per slot,
// extraction) is the reference's event for event, and does not move when the
// batch's secret contents — keys, ops, payloads, hit pattern — change.
func TestScanTraceMatchesSlotMajorReference(t *testing.T) {
	for _, shape := range ledgerShapes {
		for _, kernel := range obliv.Kernels() {
			t.Run(fmt.Sprintf("alpha=%d/%s", shape.alpha, kernel), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shape.alpha) + 7))
				ids, data := refPartition(rng, shape.objects)
				var first *trace.Recorder
				for round := 0; round < 3; round++ {
					reqs := refBatch(rng, shape.alpha, ids)

					recRef := trace.New()
					hp := ohash.Params{Objects: len(ids), Rec: recRef}
					refBatchAccess(t, reqs, hp, ids, append([]byte(nil), data...))

					rec := trace.New()
					sub := New(Config{BlockSize: refBlock, Rec: rec})
					sub.UseKernel(kernel)
					if err := sub.Init(ids, data); err != nil {
						t.Fatal(err)
					}
					if _, err := sub.BatchAccess(reqs); err != nil {
						t.Fatal(err)
					}
					if rec.Count() == 0 || !trace.Equal(rec, recRef) {
						t.Fatalf("round %d: trace (%d events) differs from the slot-major reference (%d events)",
							round, rec.Count(), recRef.Count())
					}
					if first == nil {
						first = rec
					} else if !trace.Equal(rec, first) {
						t.Fatalf("round %d: trace depends on batch contents", round)
					}
				}
			})
		}
	}
}
