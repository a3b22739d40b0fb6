package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 32

func newPartition(t *testing.T) *suboram.SubORAM {
	t.Helper()
	return suboram.New(suboram.Config{BlockSize: testBlock})
}

// loadObjects initializes dur with n objects whose value encodes their id.
func loadObjects(t *testing.T, dur *Durable, n int) {
	t.Helper()
	ids := make([]uint64, n)
	data := make([]byte, n*testBlock)
	for i := range ids {
		ids[i] = uint64(i + 1)
		fillValue(data[i*testBlock:(i+1)*testBlock], uint64(i+1), 0)
	}
	if err := dur.Init(ids, data); err != nil {
		t.Fatalf("Init: %v", err)
	}
}

// fillValue writes a recognizable (id, version) pattern into a value block.
func fillValue(dst []byte, id, version uint64) {
	for i := range dst {
		dst[i] = byte(id)*3 + byte(version)*7 + byte(i)
	}
}

// writeBatch applies a single-row write batch for (key, version).
func writeBatch(t *testing.T, dur *Durable, key, version uint64) {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	val := make([]byte, testBlock)
	fillValue(val, key, version)
	reqs.SetRow(0, store.OpWrite, key, 0, 1, 0, val)
	if _, err := dur.BatchAccess(reqs); err != nil {
		t.Fatalf("write batch key=%d: %v", key, err)
	}
}

// readBack reads key through a batch and returns the value block.
func readBack(t *testing.T, dur *Durable, key uint64) []byte {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 1, 0, nil)
	out, err := dur.BatchAccess(reqs)
	if err != nil {
		t.Fatalf("read batch key=%d: %v", key, err)
	}
	return out.Block(0)
}

func expectValue(t *testing.T, dur *Durable, key, version uint64) {
	t.Helper()
	want := make([]byte, testBlock)
	fillValue(want, key, version)
	if got := readBack(t, dur, key); !bytes.Equal(got, want) {
		t.Fatalf("key %d: got %x, want version %d (%x)", key, got, version, want)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	if dur.Recovered() {
		t.Fatal("fresh directory reported recovered")
	}
	loadObjects(t, dur, 10)
	writeBatch(t, dur, 3, 1)
	writeBatch(t, dur, 7, 2)
	writeBatch(t, dur, 3, 5)
	if got := dur.Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a fresh in-memory partition: state must come from disk.
	dur2, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	if !dur2.Recovered() {
		t.Fatal("reopen did not recover")
	}
	if got := dur2.Epoch(); got != 3 {
		t.Fatalf("recovered epoch = %d, want 3", got)
	}
	expectValue(t, dur2, 3, 5)
	expectValue(t, dur2, 7, 2)
	expectValue(t, dur2, 1, 0) // untouched object keeps its load-time value
}

// TestRestoreSealsStateAndSurvivesCrash: Restore (the replica-resync
// import path) must leave the partition serving the imported state AND
// seal it on disk, so a crash right after a resync recovers the resynced
// state, not the pre-resync one.
func TestRestoreSealsStateAndSurvivesCrash(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 4)
	writeBatch(t, dur, 2, 1)

	// Import a peer's image: same ids, different versions.
	n := 4
	ids := make([]uint64, n)
	data := make([]byte, n*testBlock)
	for i := range ids {
		ids[i] = uint64(i + 1)
		fillValue(data[i*testBlock:(i+1)*testBlock], uint64(i+1), 9)
	}
	if err := dur.Restore(ids, data); err != nil {
		t.Fatal(err)
	}
	expectValue(t, dur, 2, 9)
	if dur.ReplayedEpochs() != 0 {
		t.Fatalf("fresh open reported replayed epochs: %d", dur.ReplayedEpochs())
	}
	// Crash (no Close) and recover: the restored image is the durable one.
	dur2, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatalf("reopen after restore: %v", err)
	}
	defer dur2.Close()
	if !dur2.Recovered() {
		t.Fatal("reopen did not recover")
	}
	expectValue(t, dur2, 2, 9)
	expectValue(t, dur2, 4, 9)
}

func TestRecoveryAcrossSnapshots(t *testing.T) {
	dirPath := t.TempDir()
	cfg := Config{BlockSize: testBlock, SnapshotEvery: 2}
	dur, err := NewDurable(dirPath, newPartition(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 8)
	for v := uint64(1); v <= 7; v++ {
		writeBatch(t, dur, 1+v%3, v)
	}
	dur.Close()

	dur2, err := NewDurable(dirPath, newPartition(t), cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	// Last writes: v=7→key 2, v=6→key 1, v=5→key 3.
	expectValue(t, dur2, 2, 7)
	expectValue(t, dur2, 1, 6)
	expectValue(t, dur2, 3, 5)
}

func TestRecoveryDiscardsUnacknowledgedTail(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 4)
	writeBatch(t, dur, 2, 1)

	// Simulate a crash after the WAL fsync but before the counter bump: the
	// record for epoch 2 is on disk, but epoch 2 was never acknowledged.
	reqs := store.NewRequests(1, testBlock)
	val := make([]byte, testBlock)
	fillValue(val, 2, 99)
	reqs.SetRow(0, store.OpWrite, 2, 0, 1, 0, val)
	dur.mu.Lock()
	if err := sealWAL(dur.log, dur.ctr.Current()+1, reqs, testBlock); err != nil {
		t.Fatal(err)
	}
	if err := dur.log.write(true); err != nil {
		t.Fatal(err)
	}
	dur.mu.Unlock()
	dur.Close()

	dur2, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	if got := dur2.Epoch(); got != 1 {
		t.Fatalf("recovered epoch = %d, want 1", got)
	}
	expectValue(t, dur2, 2, 1) // the unacknowledged version 99 must not surface

	// The discarded tail must also be gone from the file, so new appends
	// stay contiguous.
	writeBatch(t, dur2, 2, 2)
	dur2.Close()
	dur3, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer dur3.Close()
	expectValue(t, dur3, 2, 2)
}

func TestRollbackDetected(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 4)
	writeBatch(t, dur, 1, 1)

	// Host stashes a validly-sealed copy of the mutable state...
	stale := map[string][]byte{}
	for _, name := range []string{snapshotFile, walFile} {
		b, err := os.ReadFile(filepath.Join(dirPath, name))
		if err != nil {
			t.Fatal(err)
		}
		stale[name] = b
	}
	writeBatch(t, dur, 1, 2)
	writeBatch(t, dur, 1, 3)
	dur.Close()

	// ...and serves it after more epochs were acknowledged.
	for name, b := range stale {
		if err := os.WriteFile(filepath.Join(dirPath, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	_, err = NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("stale state: err = %v, want ErrRollback", err)
	}
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("ErrRollback must be in the ErrIntegrity class, got %v", err)
	}
}

func TestMissingFilesDetected(t *testing.T) {
	for _, name := range []string{snapshotFile, walFile, counterFile} {
		t.Run(name, func(t *testing.T) {
			dirPath := t.TempDir()
			dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
			if err != nil {
				t.Fatal(err)
			}
			loadObjects(t, dur, 4)
			writeBatch(t, dur, 1, 1)
			dur.Close()
			if err := os.Remove(filepath.Join(dirPath, name)); err != nil {
				t.Fatal(err)
			}
			dur2, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
			if err == nil {
				dur2.Close()
				// Deleting epoch.ctr models destroying the trusted counter —
				// real counter hardware cannot be erased by the host, so the
				// simulation accepts a silently-fresh counter only when it
				// never reaches this branch.
				if name != counterFile {
					t.Fatalf("deleting %s went undetected", name)
				}
				t.Skip("counter deletion is outside the modeled threat (hardware counter)")
			}
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("deleting %s: err = %v, want ErrIntegrity class", name, err)
			}
		})
	}
}

func TestTamperDetected(t *testing.T) {
	for _, name := range []string{snapshotFile, walFile, counterFile} {
		t.Run(name, func(t *testing.T) {
			dirPath := t.TempDir()
			dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
			if err != nil {
				t.Fatal(err)
			}
			loadObjects(t, dur, 4)
			writeBatch(t, dur, 1, 1)
			dur.Close()

			path := filepath.Join(dirPath, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if name == counterFile {
				// One damaged slot is what a crash mid-increment leaves (see
				// TestCounterSlots); tampering is damage to both.
				b[0] ^= 0x40
			}
			if err := os.WriteFile(path, b, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("tampering %s: err = %v, want ErrIntegrity class", name, err)
			}
		})
	}
}

// TestPaddedWALRecordReplays pins that a log written when records were
// padded with dummy rows to a multiple of a row granularity still opens:
// replay skips the padding as it skips any dummy row, and the batch's read
// rows stay reads.
func TestPaddedWALRecordReplays(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 16)
	// A 10-row batch, writes to every other key and reads interleaved,
	// padded to 12 rows exactly as a granularity of 4 padded it; logged and
	// acknowledged behind the partition's back, as a crash after the
	// counter write leaves it.
	reqs := store.NewRequests(12, testBlock)
	val := make([]byte, testBlock)
	for i := 0; i < 12; i++ {
		key := uint64(i + 1)
		switch {
		case i >= 10:
			reqs.SetRow(i, store.OpWrite, store.DummyKeyBit, 0, uint64(i), 0, nil)
		case i%2 == 0:
			fillValue(val, key, 11)
			reqs.SetRow(i, store.OpWrite, key, 0, uint64(i), 0, val)
		default:
			reqs.SetRow(i, store.OpRead, key, 0, uint64(i), 0, nil)
		}
	}
	dur.mu.Lock()
	if err := sealWAL(dur.log, dur.ctr.Current()+1, reqs, testBlock); err != nil {
		t.Fatal(err)
	}
	if err := dur.log.write(true); err != nil {
		t.Fatal(err)
	}
	if err := dur.ack(); err != nil {
		t.Fatal(err)
	}
	dur.mu.Unlock()
	dur.Close()

	dur2, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	for i := 0; i < 10; i++ {
		key := uint64(i + 1)
		if i%2 == 0 {
			expectValue(t, dur2, key, 11)
		} else {
			expectValue(t, dur2, key, 0) // reads must not have become writes
		}
	}
}

func TestBlockSizeMismatchRejected(t *testing.T) {
	dirPath := t.TempDir()
	dur, err := NewDurable(dirPath, newPartition(t), Config{BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, dur, 2)
	dur.Close()
	_, err = NewDurable(dirPath, suboram.New(suboram.Config{BlockSize: 64}), Config{BlockSize: 64})
	if err == nil {
		t.Fatal("block size mismatch went undetected")
	}
}

func TestCounterDurability(t *testing.T) {
	dirPath := t.TempDir()
	d, err := openDir(nil, dirPath, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctr, existed, err := openCounter(d)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("fresh counter reported as existing")
	}
	for i := uint64(1); i <= 5; i++ {
		if got := ctr.Increment(); got != i {
			t.Fatalf("Increment = %d, want %d", got, i)
		}
	}
	ctr2, existed, err := openCounter(d)
	if err != nil {
		t.Fatal(err)
	}
	if !existed || ctr2.Current() != 5 {
		t.Fatalf("reloaded counter = %d (existed=%v), want 5", ctr2.Current(), existed)
	}
}

// TestCounterSlots pins the in-place counter's on-disk behaviour: the file
// never changes size or name, increments alternate between the two slots, a
// damaged newer slot reads as the previous value (what a crash mid-increment
// leaves: that increment never returned), a slot moved to the other position
// does not authenticate, and a file with no authentic slot fails closed.
func TestCounterSlots(t *testing.T) {
	dirPath := t.TempDir()
	d, err := openDir(nil, dirPath, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctr, _, err := openCounter(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dirPath, counterFile)
	var prev []byte
	for v := uint64(1); v <= 4; v++ {
		ctr.Increment()
		if err := ctr.Err(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != counterFileLen {
			t.Fatalf("counter file is %d bytes after %d increments, want %d", len(b), v, counterFileLen)
		}
		if prev != nil {
			same, other := int(1-v&1)*counterSlotStride, int(v&1)*counterSlotStride
			if !bytes.Equal(b[same:same+counterSlotLen], prev[same:same+counterSlotLen]) {
				t.Fatalf("increment to %d rewrote the slot holding %d", v, v-1)
			}
			if bytes.Equal(b[other:other+counterSlotLen], prev[other:other+counterSlotLen]) {
				t.Fatalf("increment to %d did not rewrite slot %d", v, v&1)
			}
		}
		prev = b
	}
	if entries, _ := os.ReadDir(dirPath); len(entries) != 2 { // seal.key, epoch.ctr
		t.Fatalf("directory holds %d files after in-place increments, want 2", len(entries))
	}
	reopen := func(b []byte) (*FileCounter, error) {
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		c, _, err := openCounter(d)
		return c, err
	}
	torn := append([]byte(nil), prev...)
	torn[5] ^= 1 // slot 0 holds 4, the newer value
	if c, err := reopen(torn); err != nil || c.Current() != 3 {
		t.Fatalf("damaged newer slot: counter %v, err %v; want 3", c, err)
	}
	swapped := append([]byte(nil), prev...)
	copy(swapped[0:], prev[counterSlotStride:][:counterSlotLen])
	copy(swapped[counterSlotStride:], prev[:counterSlotLen])
	if _, err := reopen(swapped); !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("swapped slots: err = %v, want ErrIntegrity class", err)
	}
	torn[counterSlotStride+5] ^= 1
	if _, err := reopen(torn); !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("no authentic slot: err = %v, want ErrIntegrity class", err)
	}
	if _, err := reopen(prev[:40]); !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("v1-sized counter file: err = %v, want ErrIntegrity class", err)
	}
}

func TestRoutingKeyPersists(t *testing.T) {
	dirPath := t.TempDir()
	k1, err := LoadOrCreateRoutingKey(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LoadOrCreateRoutingKey(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("routing key changed across loads")
	}
	// Tampering the sealed key file must fail loudly, not yield a new key.
	path := filepath.Join(dirPath, routeKeyFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrCreateRoutingKey(dirPath); !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("tampered routing key: err = %v, want ErrIntegrity class", err)
	}
}
