package segstore

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
)

// The sealed placement: the store over host memory, with the tests below
// playing the untrusted host that owns the memory file's bytes.

func memStore(t *testing.T, blockSize, segBlocks, n int) (*Store, *hostfs.Mem) {
	t.Helper()
	mem := hostfs.NewMem()
	s, err := Open("", Options{BlockSize: blockSize, SegmentBlocks: segBlocks, Key: crypt.MustNewKey(), FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Format(n); err != nil {
		t.Fatal(err)
	}
	return s, mem
}

// memSlot returns the offset and length of segment seg's slot at epoch in
// the memory file.
func memSlot(s *Store, seg int, epoch uint64) (int64, int) {
	n := s.slotBytesFor(s.reg)
	return int64(physSlot(seg, epoch)) * int64(n), n
}

func memRead(t *testing.T, mem *hostfs.Mem, s *Store, off int64, n int) []byte {
	t.Helper()
	f, err := mem.OpenFile(s.dataPath(s.reg.gen), os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, n)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	return b
}

func memWrite(t *testing.T, mem *hostfs.Mem, s *Store, off int64, b []byte) {
	t.Helper()
	f, err := mem.OpenFile(s.dataPath(s.reg.gen), os.O_RDWR)
	if err == nil {
		_, err = f.WriteAt(b, off)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// runEpoch runs one batch's bracket: Begin, a full Scan applying fn, Commit.
func runEpoch(t *testing.T, s *Store, fn func(i int, blk []byte)) {
	t.Helper()
	s.Begin()
	if err := s.Scan(0, s.NumBlocks(), eachBlock(s, fn)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	const blockSize = 32
	s, _ := memStore(t, blockSize, 4, 8)
	zero := make([]byte, blockSize)
	for i, blk := range readAll(t, s) {
		if !bytes.Equal(blk, zero) {
			t.Fatalf("fresh store: block %d not zero", i)
		}
	}
	val := bytes.Repeat([]byte{0xAB}, blockSize)
	if err := s.LoadRange(3, val); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// A batch rewrites block 5 in place and leaves the rest as loaded.
	runEpoch(t, s, func(i int, blk []byte) {
		if i == 5 {
			copy(blk, bytes.Repeat([]byte{0xCD}, blockSize))
		}
	})
	for i, blk := range readAll(t, s) {
		want := zero
		switch i {
		case 3:
			want = val
		case 5:
			want = bytes.Repeat([]byte{0xCD}, blockSize)
		}
		if !bytes.Equal(blk, want) {
			t.Fatalf("block %d = %x, want %x", i, blk, want)
		}
	}
}

func TestMemStoreDetectsCorruption(t *testing.T) {
	s, mem := memStore(t, 16, 4, 16)
	off, _ := memSlot(s, 1, s.Epoch())
	b := memRead(t, mem, s, off+slotPrefixLen+3, 1)
	b[0] ^= 1
	memWrite(t, mem, s, off+slotPrefixLen+3, b)
	err := s.Verify(0, s.NumBlocks(), nil)
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("bit flip: got %v, want ErrIntegrity class", err)
	}
	if errors.Is(err, ErrSegmentRollback) {
		t.Fatalf("bit flip reported as a rollback: %v", err)
	}
}

func TestMemStoreDetectsRollback(t *testing.T) {
	s, mem := memStore(t, 16, 4, 8)
	runEpoch(t, s, func(i int, blk []byte) { blk[0] = 1 })
	// A validly sealed slot of segment 0, two epochs stale once the same
	// parity slot is reused.
	off, n := memSlot(s, 0, s.Epoch())
	stale := memRead(t, mem, s, off, n)
	runEpoch(t, s, func(i int, blk []byte) { blk[0] = 2 })
	runEpoch(t, s, func(i int, blk []byte) { blk[0] = 3 })
	if cur, _ := memSlot(s, 0, s.Epoch()); cur != off {
		t.Fatalf("segment 0 at slot offset %d, want the stale slot's %d", cur, off)
	}
	wantReplayRejected(t, s, mem, off, stale)
}

// wantReplayRejected puts a slot image the host kept back at off and
// requires the next full pass to refuse it as a rollback.
func wantReplayRejected(t *testing.T, s *Store, mem *hostfs.Mem, off int64, kept []byte) {
	t.Helper()
	memWrite(t, mem, s, off, kept)
	err := s.Verify(0, s.NumBlocks(), nil)
	if !errors.Is(err, ErrSegmentRollback) || !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("replayed slot: got %v, want ErrSegmentRollback in the ErrIntegrity class", err)
	}
}

// TestMemStoreFormatSlotReplayAfterLoad: a load writes the data into the
// very slot, at the very epoch, in which Format sealed the zeroed segment.
// Putting that zeroed seal back must not pass for the loaded data.
func TestMemStoreFormatSlotReplayAfterLoad(t *testing.T) {
	const blockSize = 16
	s, mem := memStore(t, blockSize, 4, 8)
	off, n := memSlot(s, 1, s.Epoch())
	zeroed := memRead(t, mem, s, off, n)
	if err := s.LoadRange(0, bytes.Repeat([]byte{0x5A}, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := memSlot(s, 1, s.Epoch()); cur != off {
		t.Fatalf("loaded segment 1 at slot offset %d, want Format's %d", cur, off)
	}
	wantReplayRejected(t, s, mem, off, zeroed)
}

// TestMemStoreAbortedEpochForgotten: an epoch that fails before its Commit
// (here: a scan that covered one segment and stopped) is discarded by the
// next Begin. The retry reads the committed blocks, not the aborted writes,
// and the aborted seal — same segment, same epoch — does not pass after it.
func TestMemStoreAbortedEpochForgotten(t *testing.T) {
	s, mem := memStore(t, 16, 4, 8)
	s.Begin()
	if err := s.Scan(0, 4, eachBlock(s, func(i int, blk []byte) { blk[0] = 9 })); err != nil {
		t.Fatal(err)
	}
	off, n := memSlot(s, 0, s.Epoch()+1)
	aborted := memRead(t, mem, s, off, n)
	runEpoch(t, s, func(i int, blk []byte) { blk[1] = 7 })
	for i, blk := range readAll(t, s) {
		if blk[0] != 0 || blk[1] != 7 {
			t.Fatalf("block %d = %x after the retried epoch, want only the retry's write", i, blk)
		}
	}
	wantReplayRejected(t, s, mem, off, aborted)
}

// TestMemStoreConcurrentDistinctSegments: scans of disjoint segments of one
// memory file, in one epoch on separate goroutines, each see and keep only
// their own blocks. Run under -race.
func TestMemStoreConcurrentDistinctSegments(t *testing.T) {
	const segBlocks, workers = 8, 8
	s, _ := memStore(t, 8, segBlocks, segBlocks*workers)
	s.Begin()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Scan(w*segBlocks, (w+1)*segBlocks, eachBlock(s, func(i int, blk []byte) {
				blk[0] = byte(i)
			})); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, blk := range readAll(t, s) {
		if blk[0] != byte(i) {
			t.Fatalf("block %d holds %d", i, blk[0])
		}
	}
}
