package store

import (
	"bytes"
	"testing"

	"snoopy/internal/obliv"
)

func TestOSwapAndCopy(t *testing.T) {
	r := NewRequests(2, 16)
	r.SetRow(0, OpWrite, 10, 3, 100, 7, []byte("alpha"))
	r.SetRow(1, OpRead, 20, 5, 200, 8, []byte("beta"))

	r.SwapRun([]uint8{0}, 0, 1)
	if r.Key[0] != 10 || r.Key[1] != 20 {
		t.Fatal("SwapRun([0]) swapped")
	}
	r.SwapRun([]uint8{1}, 0, 1)
	if r.Key[0] != 20 || r.Key[1] != 10 || r.Op[0] != OpRead || r.Op[1] != OpWrite {
		t.Fatal("SwapRun([1]) failed")
	}
	if !bytes.HasPrefix(r.Block(0), []byte("beta")) || !bytes.HasPrefix(r.Block(1), []byte("alpha")) {
		t.Fatal("SwapRun([1]) did not swap data blocks")
	}

	r.OCopyRow(1, 0, 1)
	if r.Key[0] != 10 || !bytes.HasPrefix(r.Block(0), []byte("alpha")) {
		t.Fatal("OCopyRow(1) failed")
	}
	r.SetRow(0, OpRead, 99, 0, 0, 0, nil)
	r.OCopyRow(0, 0, 1)
	if r.Key[0] != 99 {
		t.Fatal("OCopyRow(0) modified dst")
	}
}

func TestOCopyRowFrom(t *testing.T) {
	a := NewRequests(1, 8)
	b := NewRequests(1, 8)
	b.SetRow(0, OpWrite, 42, 1, 2, 3, []byte("xyz"))
	a.OCopyRowFrom(1, 0, b, 0)
	if a.Key[0] != 42 || !bytes.HasPrefix(a.Block(0), []byte("xyz")) {
		t.Fatal("OCopyRowFrom failed")
	}
}

func TestSetRowZeroesStaleData(t *testing.T) {
	r := NewRequests(1, 8)
	r.SetRow(0, OpWrite, 1, 0, 0, 0, []byte("longdata"))
	r.SetRow(0, OpWrite, 1, 0, 0, 0, []byte("ab"))
	want := []byte{'a', 'b', 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(r.Block(0), want) {
		t.Fatalf("stale data not zeroed: %q", r.Block(0))
	}
}

func TestViewAliases(t *testing.T) {
	r := NewRequests(4, 8)
	for i := 0; i < 4; i++ {
		r.SetRow(i, OpRead, uint64(i), 0, 0, 0, nil)
	}
	v := r.View(1, 3)
	if v.Len() != 2 || v.Key[0] != 1 || v.Key[1] != 2 {
		t.Fatal("View window wrong")
	}
	v.Key[0] = 77
	if r.Key[1] != 77 {
		t.Fatal("View must alias parent")
	}
}

func TestConcatAndClone(t *testing.T) {
	a := NewRequests(2, 8)
	b := NewRequests(1, 8)
	a.SetRow(0, OpRead, 1, 0, 0, 0, nil)
	a.SetRow(1, OpRead, 2, 0, 0, 0, nil)
	b.SetRow(0, OpWrite, 3, 0, 0, 0, []byte("v"))
	c := Concat(a, b)
	if c.Len() != 3 || c.Key[2] != 3 || c.Op[2] != OpWrite {
		t.Fatal("Concat wrong")
	}
	d := c.Clone()
	d.Key[0] = 99
	if c.Key[0] == 99 {
		t.Fatal("Clone must not alias")
	}
}

func TestDummyKeySpace(t *testing.T) {
	if IsDummyKey(42) || !IsDummyKey(DummyKeyBit|42) {
		t.Fatal("dummy key predicate wrong")
	}
	if DummyMark(42) != 0 || DummyMark(DummyKeyBit|7) != 1 {
		t.Fatal("DummyMark wrong")
	}
}

func TestBySubKeyWriteSeqOrdering(t *testing.T) {
	// Requests across 2 subORAMs with duplicates and a dummy; after sorting,
	// each subORAM group is contiguous, dummies last, and the first record
	// of each duplicate run is the latest write.
	r := NewRequests(7, 8)
	r.SetRow(0, OpRead, 5, 1, 1, 0, nil)
	r.SetRow(1, OpWrite, 5, 1, 2, 0, []byte("w2"))
	r.SetRow(2, OpWrite, 5, 1, 9, 0, []byte("w9"))
	r.SetRow(3, OpRead, 3, 0, 4, 0, nil)
	r.SetRow(4, OpRead, DummyKeyBit|1, 1, 0, 0, nil)
	r.SetRow(5, OpWrite, 3, 0, 8, 0, []byte("w8"))
	r.SetRow(6, OpRead, 7, 1, 3, 0, nil)

	obliv.Sort(BySubKeyWriteSeq{r})

	wantKeys := []uint64{3, 3, 5, 5, 5, 7, DummyKeyBit | 1}
	wantSubs := []uint32{0, 0, 1, 1, 1, 1, 1}
	for i := range wantKeys {
		if r.Key[i] != wantKeys[i] || r.Sub[i] != wantSubs[i] {
			t.Fatalf("slot %d: key=%d sub=%d, want key=%d sub=%d",
				i, r.Key[i], r.Sub[i], wantKeys[i], wantSubs[i])
		}
	}
	// Representative of key 3 run is the write (seq 8); of key 5 run the
	// seq-9 write.
	if r.Op[0] != OpWrite || r.Seq[0] != 8 {
		t.Fatalf("key 3 representative wrong: op=%d seq=%d", r.Op[0], r.Seq[0])
	}
	if r.Op[2] != OpWrite || r.Seq[2] != 9 {
		t.Fatalf("key 5 representative wrong: op=%d seq=%d", r.Op[2], r.Seq[2])
	}
}

func TestBySubKeyTagOrdering(t *testing.T) {
	r := NewRequests(5, 8)
	r.SetRow(0, OpRead, 5, 0, 0, 0, nil)
	r.Tag[0] = 1 // request
	r.SetRow(1, OpRead, 5, 0, 0, 0, nil)
	r.Tag[1] = 0                         // response
	r.SetRow(2, OpRead, 2, 1, 0, 0, nil) // Sub outranks Key
	r.Tag[2] = 1
	r.SetRow(3, OpRead, 2, 1, 0, 0, nil)
	r.Tag[3] = 0
	r.SetRow(4, OpRead, 9, 0, 0, 0, nil)

	obliv.Sort(BySubKeyTag{r})
	wantKey := []uint64{5, 5, 9, 2, 2}
	wantTag := []uint8{0, 1, 0, 0, 1}
	for i := range wantKey {
		if r.Key[i] != wantKey[i] || r.Tag[i] != wantTag[i] {
			t.Fatalf("slot %d: key=%d tag=%d", i, r.Key[i], r.Tag[i])
		}
	}
}

// TestMetaBySubKeyMovesOnlyMetadata: the narrow sort orders like BySubKey
// and carries Op, Seq and Client along, while Tag, Aux and Data stay put.
func TestMetaBySubKeyMovesOnlyMetadata(t *testing.T) {
	r := NewRequests(3, 8)
	r.SetRow(0, OpWrite, 7, 1, 70, 700, []byte{0})
	r.SetRow(1, OpRead, 9, 0, 90, 900, []byte{1})
	r.SetRow(2, OpRead, 3, 1, 30, 300, []byte{2})
	r.Tag[0], r.Aux[1] = 1, 1

	obliv.Sort(MetaBySubKey{r})
	for i, w := range []struct {
		op          uint8
		key         uint64
		sub         uint32
		seq, client uint64
	}{{OpRead, 9, 0, 90, 900}, {OpRead, 3, 1, 30, 300}, {OpWrite, 7, 1, 70, 700}} {
		if r.Op[i] != w.op || r.Key[i] != w.key || r.Sub[i] != w.sub || r.Seq[i] != w.seq || r.Client[i] != w.client {
			t.Fatalf("slot %d: op=%d key=%d sub=%d seq=%d client=%d", i, r.Op[i], r.Key[i], r.Sub[i], r.Seq[i], r.Client[i])
		}
		if r.Block(i)[0] != byte(i) {
			t.Fatalf("slot %d: value block moved", i)
		}
	}
	if r.Tag[0] != 1 || r.Aux[1] != 1 {
		t.Fatal("Tag/Aux moved")
	}
}

func TestOrderStampRoundTrip(t *testing.T) {
	r := NewRequests(3, 8)
	if k, b := r.OrderStamp(0); k != [2]uint64{} || b != 1 {
		t.Fatalf("unstamped row reads (%v, %d), want key order", k, b)
	}
	r.StampOrder([2]uint64{11, 22}, 5)
	for i := 0; i < r.Len(); i++ {
		if k, b := r.OrderStamp(i); k != [2]uint64{11, 22} || b != 5 {
			t.Fatalf("row %d stamp (%v, %d)", i, k, b)
		}
	}
	r.StampKeyOrder()
	if k, b := r.OrderStamp(2); k != [2]uint64{} || b != 1 {
		t.Fatalf("key-order stamp reads (%v, %d)", k, b)
	}
}
