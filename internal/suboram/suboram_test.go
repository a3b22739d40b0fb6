package suboram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
)

const testBlock = 32

func value(id uint64, version int) []byte {
	b := make([]byte, testBlock)
	copy(b, []byte(fmt.Sprintf("obj-%d-v%d", id, version)))
	return b
}

func newLoaded(t *testing.T, cfg Config, n int) *SubORAM {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = testBlock
	}
	s := New(cfg)
	ids := make([]uint64, n)
	data := make([]byte, n*cfg.BlockSize)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i * 3) // sparse ids
		copy(data[i*cfg.BlockSize:], value(ids[i], 0))
	}
	if err := s.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	return s
}

func batchOf(rows ...[3]interface{}) *store.Requests {
	reqs := store.NewRequests(len(rows), testBlock)
	for i, r := range rows {
		op := r[0].(uint8)
		key := r[1].(uint64)
		var data []byte
		if r[2] != nil {
			data = r[2].([]byte)
		}
		reqs.SetRow(i, op, key, 0, uint64(i), uint64(i), data)
	}
	return sendable(reqs)
}

// testKey is the table key the tests' batches are sent under.
var testKey = crypt.SipKey{0x5eed, 0x7ab1e}

// sendable puts reqs, in place, in the state a load balancer sends a batch
// in: stamped with a table key and in its table order. It returns reqs.
func sendable(reqs *store.Requests) *store.Requests {
	ohash.Order(reqs, testKey)
	return reqs
}

func respFor(t *testing.T, out *store.Requests, key uint64) int {
	t.Helper()
	for i := 0; i < out.Len(); i++ {
		if out.Key[i] == key {
			return i
		}
	}
	t.Fatalf("no response for key %d", key)
	return -1
}

func TestReadsReturnStoredValues(t *testing.T) {
	s := newLoaded(t, Config{}, 100)
	reqs := batchOf(
		[3]interface{}{store.OpRead, uint64(0), nil},
		[3]interface{}{store.OpRead, uint64(3), nil},
		[3]interface{}{store.OpRead, uint64(297), nil},
	)
	out, err := s.BatchAccess(sendable(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("got %d responses", out.Len())
	}
	for _, key := range []uint64{0, 3, 297} {
		i := respFor(t, out, key)
		if !bytes.Equal(out.Block(i), value(key, 0)) {
			t.Fatalf("key %d: wrong value %q", key, out.Block(i))
		}
		if out.Aux[i] != 1 {
			t.Fatalf("key %d: found bit not set", key)
		}
	}
}

func TestWriteThenReadAcrossBatches(t *testing.T) {
	s := newLoaded(t, Config{}, 50)
	w := batchOf([3]interface{}{store.OpWrite, uint64(6), value(6, 1)})
	out, err := s.BatchAccess(sendable(w))
	if err != nil {
		t.Fatal(err)
	}
	// Write response carries the pre-write value (§C).
	if !bytes.Equal(out.Block(respFor(t, out, 6)), value(6, 0)) {
		t.Fatalf("write response should be pre-write value, got %q", out.Block(0))
	}
	r := batchOf([3]interface{}{store.OpRead, uint64(6), nil})
	out, err = s.BatchAccess(sendable(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Block(respFor(t, out, 6)), value(6, 1)) {
		t.Fatalf("read after write returned %q", out.Block(0))
	}
}

func TestAbsentKeysReturnZeroes(t *testing.T) {
	s := newLoaded(t, Config{}, 20)
	reqs := batchOf(
		[3]interface{}{store.OpRead, uint64(1), nil}, // not stored (ids are multiples of 3)
		[3]interface{}{store.OpWrite, uint64(2), value(2, 9)},
		[3]interface{}{store.OpRead, store.DummyKeyBit | 5, nil},
	)
	out, err := s.BatchAccess(sendable(reqs))
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, testBlock)
	// The dummy trails the batch and comes back as a vacant row in its place.
	if out.Key[2] == store.DummyKeyBit|5 || !store.IsDummyKey(out.Key[2]) {
		t.Fatalf("dummy answered as key %#x, want a vacant row", out.Key[2])
	}
	for _, i := range []int{respFor(t, out, 1), respFor(t, out, 2), 2} {
		key := out.Key[i]
		if !bytes.Equal(out.Block(i), zero) {
			t.Fatalf("key %#x: expected zero response, got %q", key, out.Block(i))
		}
		if out.Aux[i] != 0 {
			t.Fatalf("key %#x: found bit should be clear", key)
		}
	}
	// The write to an absent key must not create an object.
	r := batchOf([3]interface{}{store.OpRead, uint64(2), nil})
	out, _ = s.BatchAccess(sendable(r))
	if out.Aux[0] != 0 {
		t.Fatal("write to absent key materialized an object")
	}
}

func TestMixedLargeBatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 400
	s := newLoaded(t, Config{}, n)
	shadow := map[uint64][]byte{}
	for i := 0; i < n; i++ {
		shadow[uint64(i*3)] = value(uint64(i*3), 0)
	}
	for round := 0; round < 5; round++ {
		perm := rng.Perm(n)
		k := 50 + rng.Intn(100)
		reqs := store.NewRequests(k, testBlock)
		expect := map[uint64][]byte{}
		writes := map[uint64][]byte{}
		for i := 0; i < k; i++ {
			key := uint64(perm[i] * 3)
			if rng.Intn(2) == 0 {
				reqs.SetRow(i, store.OpRead, key, 0, uint64(i), uint64(i), nil)
			} else {
				v := value(key, 100+round)
				reqs.SetRow(i, store.OpWrite, key, 0, uint64(i), uint64(i), v)
				writes[key] = v
			}
			expect[key] = shadow[key] // response is always pre-batch value
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

// TestStrictRejectsDuplicates: the delivery gate's order check, under which
// real rows must strictly ascend, refuses a batch that repeats a key.
func TestStrictRejectsDuplicates(t *testing.T) {
	s := newLoaded(t, Config{}, 10)
	reqs := batchOf(
		[3]interface{}{store.OpRead, uint64(3), nil},
		[3]interface{}{store.OpRead, uint64(3), nil},
	)
	if _, err := s.BatchAccess(sendable(reqs)); err == nil {
		t.Fatal("duplicate batch accepted: the order check must refuse it")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		serial := newLoaded(t, Config{Workers: 1}, 200)
		par := newLoaded(t, Config{Workers: workers}, 200)
		rng := rand.New(rand.NewSource(32))
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
		// And the partitions must now agree: read everything back.
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

// TestSealedMatchesPlain: a round trip through the sealed placement, with two
// scan workers streaming disjoint segments of one memory file at once (the
// part -race is for).
func TestSealedMatchesPlain(t *testing.T) {
	plain := newLoaded(t, Config{}, 60)
	sealed, _ := newSealed(t, Config{Workers: 2}, 60)
	reqs := batchOf(
		[3]interface{}{store.OpWrite, uint64(9), value(9, 5)},
		[3]interface{}{store.OpRead, uint64(12), nil},
	)
	o1, err1 := plain.BatchAccess(sendable(reqs).Clone())
	o2, err2 := sealed.BatchAccess(sendable(reqs).Clone())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for _, key := range []uint64{9, 12} {
		if !bytes.Equal(o1.Block(respFor(t, o1, key)), o2.Block(respFor(t, o2, key))) {
			t.Fatalf("sealed/plain diverge on key %d", key)
		}
	}
	r := batchOf([3]interface{}{store.OpRead, uint64(9), nil})
	o3, err := sealed.BatchAccess(sendable(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o3.Block(0), value(9, 5)) {
		t.Fatal("sealed store lost a write")
	}
}

func TestInitValidation(t *testing.T) {
	s := New(Config{BlockSize: testBlock})
	if err := s.Init([]uint64{1, 1}, make([]byte, 2*testBlock)); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if err := s.Init([]uint64{store.DummyKeyBit | 1}, make([]byte, testBlock)); err == nil {
		t.Fatal("dummy-space id accepted")
	}
	if err := s.Init([]uint64{1}, make([]byte, 5)); err == nil {
		t.Fatal("bad data length accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := newLoaded(t, Config{}, 50)
	if _, err := s.BatchAccess(batchOf([3]interface{}{store.OpRead, uint64(0), nil})); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Build <= 0 || st.Scan <= 0 || st.Extract <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}
