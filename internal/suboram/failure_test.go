package suboram

import (
	"bytes"
	"errors"
	"testing"

	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
)

// newSealed returns a loaded subORAM in the Sealed placement, built as New
// builds it but with storeSegBlocks-block segments, so Workers > 1 splits
// even a small partition, and the host memory it lives in, for the tests
// that play the untrusted host.
func newSealed(t *testing.T, cfg Config, n int) (*SubORAM, *hostfs.Mem) {
	t.Helper()
	cfg.BlockSize = testBlock
	ss, mem := sealedMemory(cfg, storeSegBlocks)
	cfg.Store = ss
	return newLoaded(t, cfg, n), mem
}

// TestSealedCorruptionFailsBatch: a host flipping bits in the sealed
// partition must surface as an integrity error, never as wrong data.
func TestSealedCorruptionFailsBatch(t *testing.T) {
	s, mem := newSealed(t, Config{}, 40)
	b := hostBytes(t, mem)
	b[100] ^= 1 // segment 0's ciphertext, in the slot the next batch reads
	setHostBytes(t, mem, b)
	_, err := s.BatchAccess(batchOf([3]interface{}{store.OpRead, uint64(21), nil}))
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("expected integrity error, got %v", err)
	}
}

// replayAfter snapshots the host's bytes after one batch, runs the next
// batch, puts the stale — validly sealed — bytes back and returns what the
// batch after that reports.
func replayAfter(t *testing.T, s *SubORAM, mem *hostfs.Mem, first, second *store.Requests) error {
	t.Helper()
	if _, err := s.BatchAccess(sendable(first)); err != nil {
		t.Fatal(err)
	}
	snap := hostBytes(t, mem)
	if _, err := s.BatchAccess(sendable(second)); err != nil {
		t.Fatal(err)
	}
	setHostBytes(t, mem, snap)
	_, err := s.BatchAccess(batchOf([3]interface{}{store.OpRead, uint64(9), nil}))
	return err
}

// TestSealedReplayFailsBatch: replaying an old (validly encrypted) segment is
// caught by the epoch the enclave holds for it.
func TestSealedReplayFailsBatch(t *testing.T) {
	s, mem := newSealed(t, Config{}, 40)
	err := replayAfter(t, s, mem,
		batchOf([3]interface{}{store.OpWrite, uint64(9), value(9, 1)}),
		batchOf([3]interface{}{store.OpWrite, uint64(9), value(9, 2)}))
	if !errors.Is(err, segstore.ErrSegmentRollback) || !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("expected a rollback in the integrity class on replay, got %v", err)
	}
}

// TestSealedReplaySameContentStillDetected: even a replay across a read-only
// batch (content identical, seal stale) must fail — detection relies on the
// epoch every segment is resealed under, not on plaintext comparison.
func TestSealedReplaySameContentStillDetected(t *testing.T) {
	s, mem := newSealed(t, Config{}, 20)
	read := func() *store.Requests { return batchOf([3]interface{}{store.OpRead, uint64(3), nil}) }
	if err := replayAfter(t, s, mem, read(), read()); !errors.Is(err, segstore.ErrSegmentRollback) {
		t.Fatalf("stale-but-identical replay not detected: %v", err)
	}
}

// TestSealedRestoreReplayFailsBatch: a Restore reseals the partition at the
// store epoch it stands at, into a new data file. The image the host held
// before, put back in its place, must fail the next batch rather than serve
// the replaced contents.
func TestSealedRestoreReplayFailsBatch(t *testing.T) {
	s, mem := newSealed(t, Config{}, 20)
	before := hostBytes(t, mem)
	ids, data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	copy(data[testBlock:2*testBlock], value(3, 5))
	if err := s.Restore(ids, data); err != nil {
		t.Fatal(err)
	}
	setHostBytes(t, mem, before)
	_, err = s.BatchAccess(batchOf([3]interface{}{store.OpRead, uint64(3), nil}))
	if !errors.Is(err, segstore.ErrSegmentRollback) || !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("pre-Restore image served: got %v, want a rollback in the integrity class", err)
	}
}

// TestSealedBytesHidePlaintext: what the host holds never contains a stored
// value in the clear, neither after load nor after a batch wrote it.
func TestSealedBytesHidePlaintext(t *testing.T) {
	s, mem := newSealed(t, Config{}, 20)
	if stored := value(3, 0); bytes.Contains(hostBytes(t, mem), stored[:8]) {
		t.Fatal("loaded plaintext visible in host memory")
	}
	secret := value(9, 77)
	if _, err := s.BatchAccess(batchOf([3]interface{}{store.OpWrite, uint64(9), secret})); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(hostBytes(t, mem), secret[:8]) {
		t.Fatal("written plaintext visible in host memory")
	}
}
