package suboram

import (
	"bytes"
	"math/rand"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// storeSegBlocks is the segment geometry for disk-resident tests: with
// 8-block segments the scan buffer holds 8 blocks, so the 200-block test
// partitions are 25× larger than the streaming buffer — comfortably past
// the 8× bar the subsystem is specified against.
const storeSegBlocks = 8

func newStoreBacked(t *testing.T, cfg Config, n int) *SubORAM {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = testBlock
	}
	ss, err := segstore.Open(t.TempDir(), segstore.Options{
		BlockSize:     cfg.BlockSize,
		SegmentBlocks: storeSegBlocks,
		Key:           crypt.MustNewKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	cfg.Store = ss
	return newLoaded(t, cfg, n)
}

func TestStoreMatchesPlain(t *testing.T) {
	plain := newLoaded(t, Config{}, 200)
	disk := newStoreBacked(t, Config{}, 200)
	reqs := batchOf(
		[3]interface{}{store.OpWrite, uint64(9), value(9, 5)},
		[3]interface{}{store.OpRead, uint64(12), nil},
		[3]interface{}{store.OpRead, uint64(1), nil}, // absent
	)
	o1, err1 := plain.BatchAccess(sendable(reqs).Clone())
	o2, err2 := disk.BatchAccess(sendable(reqs).Clone())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for _, key := range []uint64{9, 12, 1} {
		if !bytes.Equal(o1.Block(respFor(t, o1, key)), o2.Block(respFor(t, o2, key))) {
			t.Fatalf("disk/plain diverge on key %d", key)
		}
	}
	r := batchOf([3]interface{}{store.OpRead, uint64(9), nil})
	o3, err := disk.BatchAccess(sendable(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o3.Block(0), value(9, 5)) {
		t.Fatal("disk-resident store lost a write")
	}
}

func TestStoreRandomizedAgainstShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 200
	s := newStoreBacked(t, Config{}, n)
	shadow := map[uint64][]byte{}
	for i := 0; i < n; i++ {
		shadow[uint64(i*3)] = value(uint64(i*3), 0)
	}
	for round := 0; round < 5; round++ {
		perm := rng.Perm(n)
		k := 30 + rng.Intn(60)
		reqs := store.NewRequests(k, testBlock)
		expect := map[uint64][]byte{}
		writes := map[uint64][]byte{}
		for i := 0; i < k; i++ {
			key := uint64(perm[i] * 3)
			if rng.Intn(2) == 0 {
				reqs.SetRow(i, store.OpRead, key, 0, uint64(i), uint64(i), nil)
			} else {
				v := value(key, 200+round)
				reqs.SetRow(i, store.OpWrite, key, 0, uint64(i), uint64(i), v)
				writes[key] = v
			}
			expect[key] = shadow[key]
		}
		out, err := s.BatchAccess(sendable(reqs))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < out.Len(); i++ {
			if !bytes.Equal(out.Block(i), expect[out.Key[i]]) {
				t.Fatalf("round %d key %d: got %q want %q", round, out.Key[i], out.Block(i), expect[out.Key[i]])
			}
		}
		for key, v := range writes {
			shadow[key] = v
		}
	}
}

func TestStoreParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		serial := newStoreBacked(t, Config{Workers: 1}, 200)
		par := newStoreBacked(t, Config{Workers: workers}, 200)
		rng := rand.New(rand.NewSource(42))
		reqs := store.NewRequests(64, testBlock)
		perm := rng.Perm(200)
		for i := 0; i < 64; i++ {
			key := uint64(perm[i] * 3)
			if i%2 == 0 {
				reqs.SetRow(i, store.OpWrite, key, 0, uint64(i), uint64(i), value(key, 7))
			} else {
				reqs.SetRow(i, store.OpRead, key, 0, uint64(i), uint64(i), nil)
			}
		}
		o1, err1 := serial.BatchAccess(sendable(reqs).Clone())
		o2, err2 := par.BatchAccess(sendable(reqs).Clone())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		m := map[uint64][]byte{}
		for i := 0; i < o1.Len(); i++ {
			m[o1.Key[i]] = o1.Block(i)
		}
		for i := 0; i < o2.Len(); i++ {
			if !bytes.Equal(o2.Block(i), m[o2.Key[i]]) {
				t.Fatalf("workers=%d: response mismatch for key %d", workers, o2.Key[i])
			}
		}
		check := store.NewRequests(200, testBlock)
		for i := 0; i < 200; i++ {
			check.SetRow(i, store.OpRead, uint64(i*3), 0, uint64(i), uint64(i), nil)
		}
		c1, _ := serial.BatchAccess(sendable(check).Clone())
		c2, _ := par.BatchAccess(sendable(check).Clone())
		m = map[uint64][]byte{}
		for i := 0; i < c1.Len(); i++ {
			m[c1.Key[i]] = c1.Block(i)
		}
		for i := 0; i < c2.Len(); i++ {
			if !bytes.Equal(c2.Block(i), m[c2.Key[i]]) {
				t.Fatalf("workers=%d: stored state diverged at key %d", workers, c2.Key[i])
			}
		}
	}
}

func TestStoreExportAndRestore(t *testing.T) {
	s := newStoreBacked(t, Config{}, 50)
	w := batchOf([3]interface{}{store.OpWrite, uint64(6), value(6, 1)})
	if _, err := s.BatchAccess(sendable(w)); err != nil {
		t.Fatal(err)
	}
	ids, data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 50 || len(data) != 50*testBlock {
		t.Fatalf("export shape %d ids, %d bytes", len(ids), len(data))
	}
	if !bytes.Equal(data[2*testBlock:3*testBlock], value(6, 1)) {
		t.Fatal("export missed the written value")
	}

	// Restore without data adopts the on-disk contents without re-streaming.
	if err := s.Restore(ids, nil); err != nil {
		t.Fatal(err)
	}
	r := batchOf([3]interface{}{store.OpRead, uint64(6), nil})
	out, err := s.BatchAccess(sendable(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Block(0), value(6, 1)) {
		t.Fatal("Restore(ids, nil) lost the partition contents")
	}

	// Shape mismatch fails closed.
	if err := s.Restore(ids[:10], nil); err == nil {
		t.Fatal("Restore(ids, nil) accepted a mis-sized identifier set")
	}
}

// TestStoreExportReadsEachSegmentOnce: Export streams the partition in one
// pass, opening every sealed segment once — not once per block it holds.
func TestStoreExportReadsEachSegmentOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	ss, _ := sealedMemory(Config{BlockSize: testBlock, Telemetry: reg}, storeSegBlocks)
	const n = 50
	s := newLoaded(t, Config{Store: ss}, n)
	reads := reg.Counter("segstore_segment_reads_total")
	before := reads.Value()
	_, data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reads.Value()-before, uint64(ss.NumSegments()); got != want {
		t.Fatalf("Export read %d segments, want %d (one pass)", got, want)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(data[i*testBlock:(i+1)*testBlock], value(uint64(i*3), 0)) {
			t.Fatalf("export of object %d does not hold its value", i)
		}
	}
}
