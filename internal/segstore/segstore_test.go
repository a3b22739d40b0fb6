package segstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
)

func testStore(t *testing.T, dir string, key crypt.Key, blockSize, segBlocks int) *Store {
	t.Helper()
	s, err := Open(dir, Options{BlockSize: blockSize, SegmentBlocks: segBlocks, Key: key})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// fillPattern writes a recognizable per-block pattern via LoadRange.
func fillPattern(t *testing.T, s *Store, n, blockSize int, salt byte) {
	t.Helper()
	data := make([]byte, n*blockSize)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(data[i*blockSize:], uint64(i))
		data[i*blockSize+8] = salt
	}
	if err := s.LoadRange(0, data); err != nil {
		t.Fatalf("LoadRange: %v", err)
	}
}

// readAll returns every block's contents, read back through one Verify pass.
func readAll(t *testing.T, s *Store) [][]byte {
	t.Helper()
	blocks := make([][]byte, s.NumBlocks())
	if err := s.Verify(0, len(blocks), eachBlock(s, func(i int, blk []byte) {
		blocks[i] = append([]byte(nil), blk...)
	})); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return blocks
}

// eachBlock adapts a per-block callback to the per-segment runs Scan and
// Verify hand over.
func eachBlock(s *Store, fn func(i int, blk []byte)) func(int, []byte) {
	bs := s.opts.BlockSize
	return func(i int, blks []byte) {
		for j := 0; j < len(blks)/bs; j++ {
			fn(i+j, blks[j*bs:(j+1)*bs])
		}
	}
}

func checkPattern(t *testing.T, s *Store, n int, salt byte) {
	t.Helper()
	for i, blk := range readAll(t, s) {
		if got := binary.LittleEndian.Uint64(blk); got != uint64(i) {
			t.Fatalf("block %d holds index %d", i, got)
		}
		if blk[8] != salt {
			t.Fatalf("block %d salt %d, want %d", i, blk[8], salt)
		}
	}
}

func TestFormatScanCommitReopen(t *testing.T) {
	for _, fs := range []hostfs.FS{hostfs.OS, hostfs.NewMem()} {
		dir := t.TempDir()
		key := crypt.MustNewKey()
		const blockSize, segBlocks, n = 32, 4, 19 // deliberately non-multiple of segBlocks
		open := func() *Store {
			s, err := Open(dir, Options{BlockSize: blockSize, SegmentBlocks: segBlocks, Key: key, FS: fs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return s
		}
		s := open()
		if s.Formatted() {
			t.Fatal("fresh store reports formatted")
		}
		if err := s.Format(n); err != nil {
			t.Fatalf("Format: %v", err)
		}
		fillPattern(t, s, n, blockSize, 0xAA)
		if err := s.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		checkPattern(t, s, n, 0xAA)

		// One epoch of scanning: increment every block's low word.
		s.Begin()
		if err := s.Scan(0, n, eachBlock(s, func(i int, blk []byte) {
			binary.LittleEndian.PutUint64(blk, binary.LittleEndian.Uint64(blk)+100)
		})); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if got := s.Epoch(); got != 1 {
			t.Fatalf("Epoch = %d, want 1", got)
		}
		s.Close()

		// Reopen: contents and epoch survive.
		s2 := open()
		if !s2.Formatted() {
			t.Fatal("reopened store reports unformatted")
		}
		if got := s2.Epoch(); got != 1 {
			t.Fatalf("reopened Epoch = %d, want 1", got)
		}
		for i, blk := range readAll(t, s2) {
			if got := binary.LittleEndian.Uint64(blk); got != uint64(i+100) {
				t.Fatalf("block %d holds %d, want %d", i, got, i+100)
			}
		}
		s2.Close()
	}
}

func TestScanAlignmentEnforced(t *testing.T) {
	s := testStore(t, t.TempDir(), crypt.MustNewKey(), 16, 4)
	if err := s.Format(16); err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(2, 8, func(int, []byte) {}); err == nil {
		t.Fatal("unaligned scan accepted")
	}
	if err := s.Scan(0, 20, func(int, []byte) {}); err == nil {
		t.Fatal("out-of-range scan accepted")
	}
}

func TestWrongKeyFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir, crypt.MustNewKey(), 16, 4)
	if err := s.Format(8); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err := Open(dir, Options{BlockSize: 16, SegmentBlocks: 4, Key: crypt.MustNewKey()})
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("wrong-key open: got %v, want ErrIntegrity class", err)
	}
}

func TestSegmentRollbackDetected(t *testing.T) {
	dir := t.TempDir()
	key := crypt.MustNewKey()
	const blockSize, segBlocks, n = 16, 4, 8
	s := testStore(t, dir, key, blockSize, segBlocks)
	if err := s.Format(n); err != nil {
		t.Fatal(err)
	}
	// Snapshot the epoch-0 data file, advance two epochs (so both parity
	// slots move past epoch 0), then restore the stale file under the fresh
	// registry: every segment must be reported rolled back.
	dataPath := s.dataPath(1)
	stale, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		s.Begin()
		if err := s.Scan(0, n, func(int, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.WriteFile(dataPath, stale, 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := testStore(t, dir, key, blockSize, segBlocks)
	err = s2.Verify(0, n, nil)
	if !errors.Is(err, ErrSegmentRollback) {
		t.Fatalf("stale data file: got %v, want ErrSegmentRollback", err)
	}
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("rollback error not in ErrIntegrity class: %v", err)
	}
	s2.Close()
}

func TestTamperedRegistryFailsClosed(t *testing.T) {
	dir := t.TempDir()
	key := crypt.MustNewKey()
	s := testStore(t, dir, key, 16, 4)
	if err := s.Format(8); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, registryFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{BlockSize: 16, SegmentBlocks: 4, Key: key})
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("tampered registry: got %v, want ErrIntegrity class", err)
	}
}

func TestLoadRangeUnaligned(t *testing.T) {
	const blockSize, segBlocks, n = 16, 4, 12
	s := testStore(t, t.TempDir(), crypt.MustNewKey(), blockSize, segBlocks)
	if err := s.Format(n); err != nil {
		t.Fatal(err)
	}
	fillPattern(t, s, n, blockSize, 0x01)
	// Overwrite an unaligned interior range [3, 9).
	data := make([]byte, 6*blockSize)
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint64(data[i*blockSize:], uint64(1000+i))
	}
	if err := s.LoadRange(3, data); err != nil {
		t.Fatal(err)
	}
	for i, blk := range readAll(t, s) {
		want := uint64(i)
		if i >= 3 && i < 9 {
			want = uint64(1000 + i - 3)
		}
		if got := binary.LittleEndian.Uint64(blk); got != want {
			t.Fatalf("block %d holds %d, want %d", i, got, want)
		}
	}
}
