package persist

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 32

// placements are the two ways a Durable keeps its partition: the tests of a
// behaviour both share run over both.
var placements = []struct {
	name string
	disk bool
}{{"memory", false}, {"disk", true}}

// testConfig is a placement's test configuration: 4-block segments, so a
// handful of objects spans several segments and ends in a partial one.
func testConfig(disk bool) Config { return Config{BlockSize: testBlock, SegmentBlocks: 4, Disk: disk} }

// newPartition is the subORAM a Durable wraps, scanning the store it is
// given (the image, in the disk placement).
func newPartition(scan suboram.BlockStore) Partition {
	return suboram.New(suboram.Config{BlockSize: testBlock, Store: scan})
}

func openDurable(t *testing.T, dir string, cfg Config) *Durable {
	t.Helper()
	dur, err := NewDurable(dir, cfg, newPartition)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return dur
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

// sendable stamps reqs with a table key and puts it in that key's table
// order, as a load balancer sends a batch. It returns reqs.
func sendable(reqs *store.Requests) *store.Requests {
	ohash.Order(reqs, crypt.SipKey{1, 2})
	return reqs
}

// writeBatch applies a single-row write batch for (key, version).
func writeBatch(t *testing.T, dur *Durable, key, version uint64) {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	val := make([]byte, testBlock)
	fillValue(val, key, version)
	reqs.SetRow(0, store.OpWrite, key, 0, 1, 0, val)
	if _, err := dur.BatchAccess(sendable(reqs)); err != nil {
		t.Fatalf("write batch key=%d: %v", key, err)
	}
}

// readBack reads key through a batch and returns the value block.
func readBack(t *testing.T, dur *Durable, key uint64) []byte {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 1, 0, nil)
	out, err := dur.BatchAccess(sendable(reqs))
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
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, testConfig(pl.disk))
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

			// Reopen with a fresh partition: state must come from disk.
			dur2 := openDurable(t, dir, testConfig(pl.disk))
			defer dur2.Close()
			if !dur2.Recovered() {
				t.Fatal("reopen did not recover")
			}
			if got, want := dur2.Replayed(), map[bool]int{false: 3, true: 0}[pl.disk]; got != want {
				t.Fatalf("replayed %d logged epochs, want %d", got, want)
			}
			if got := dur2.Epoch(); got != 3 {
				t.Fatalf("recovered epoch = %d, want 3", got)
			}
			expectValue(t, dur2, 3, 5)
			expectValue(t, dur2, 7, 2)
			expectValue(t, dur2, 1, 0) // untouched object keeps its load-time value
		})
	}
}

// TestInitRefusesInvalidIDs: Init validates the identifier set before it
// writes anything, so a refused Init leaves the partition as it was.
func TestInitRefusesInvalidIDs(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dur := openDurable(t, t.TempDir(), testConfig(pl.disk))
			defer dur.Close()
			loadObjects(t, dur, 4)
			writeBatch(t, dur, 2, 1)
			for _, ids := range [][]uint64{{1, 2, 1}, {1, store.DummyKeyBit | 2, 3}} {
				if err := dur.Init(ids, make([]byte, len(ids)*testBlock)); err == nil {
					t.Fatalf("Init(%v) accepted", ids)
				}
			}
			expectValue(t, dur, 2, 1)
		})
	}
}

func TestRecoveryAcrossSnapshots(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(false)
	cfg.SnapshotEvery = 2
	dur := openDurable(t, dir, cfg)
	loadObjects(t, dur, 8)
	for v := uint64(1); v <= 7; v++ {
		writeBatch(t, dur, 1+v%3, v)
	}
	dur.Close()

	dur2 := openDurable(t, dir, cfg)
	defer dur2.Close()
	if got := dur2.Replayed(); got != 1 { // images before batches 3, 5 and 7
		t.Fatalf("replayed %d logged epochs, want 1", got)
	}
	// Last writes: v=7→key 2, v=6→key 1, v=5→key 3.
	expectValue(t, dur2, 2, 7)
	expectValue(t, dur2, 1, 6)
	expectValue(t, dur2, 3, 5)
}

// TestRecoveryDiscardsUnacknowledgedTail: what a crash leaves of a batch
// nobody was answered for — its logged record past the counter (memory), or
// its scan's uncommitted writes to the image's other parity slots (disk) —
// is dropped: the partition reopens at the counter, and goes on from there.
func TestRecoveryDiscardsUnacknowledgedTail(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, testConfig(pl.disk))
			loadObjects(t, dur, 4)
			writeBatch(t, dur, 2, 1)
			dur.mu.Lock()
			if pl.disk {
				dur.image.Begin()
				if err := dur.image.Scan(0, 4, func(i int, blks []byte) {
					for j := 0; j < len(blks)/testBlock; j++ {
						fillValue(blks[j*testBlock:(j+1)*testBlock], uint64(i+j+1), 99)
					}
				}); err != nil {
					t.Fatal(err)
				}
			} else {
				reqs := store.NewRequests(1, testBlock)
				val := make([]byte, testBlock)
				fillValue(val, 2, 99)
				reqs.SetRow(0, store.OpWrite, 2, 0, 1, 0, val)
				if err := sealWAL(dur.log, dur.ctr.Current()+1, []*store.Requests{reqs}, testBlock); err != nil {
					t.Fatal(err)
				}
				if err := dur.log.write(true); err != nil {
					t.Fatal(err)
				}
			}
			dur.mu.Unlock()
			dur.Close()

			dur2 := openDurable(t, dir, testConfig(pl.disk))
			defer dur2.Close()
			if got := dur2.Epoch(); got != 1 {
				t.Fatalf("recovered epoch = %d, want 1", got)
			}
			expectValue(t, dur2, 2, 1) // the unacknowledged version 99 must not surface

			// The discarded tail must not get in the way of what follows.
			writeBatch(t, dur2, 2, 2)
			dur2.Close()
			dur3 := openDurable(t, dir, testConfig(pl.disk))
			defer dur3.Close()
			expectValue(t, dur3, 2, 2)
		})
	}
}

// failing is a partition whose next delivery fails once fail is set, after
// the Durable's gate and before any scan — as a table overflow does.
type failing struct {
	Partition
	fail bool
}

var errPartition = errors.New("partition failed after the gate")

func (f *failing) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	if f.fail {
		f.fail = false
		return nil, errPartition
	}
	return f.Partition.Deliver(tag, reqs)
}

// TestPartitionFailureBreaksUntilReopened is the one rule's second half, in
// both placements: a partition error after the gate leaves the Durable
// refusing every delivery, a valid one included, until reopened; the reopened
// Durable holds the values from before the failed delivery at the same
// counter epoch, and its next delivery takes that epoch. (The first half, a
// gate refusal writing nothing and leaving it serving, is
// suboram.TestDeliveryAppliedWholeOrNotAtAll's durable rows.)
func TestPartitionFailureBreaksUntilReopened(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			var part *failing
			dur, err := NewDurable(dir, testConfig(pl.disk), func(scan suboram.BlockStore) Partition {
				part = &failing{Partition: newPartition(scan)}
				return part
			})
			if err != nil {
				t.Fatal(err)
			}
			loadObjects(t, dur, 4)
			writeBatch(t, dur, 2, 1)
			part.fail = true
			reqs := store.NewRequests(1, testBlock)
			val := make([]byte, testBlock)
			fillValue(val, 2, 99)
			reqs.SetRow(0, store.OpWrite, 2, 0, 1, 0, val)
			if _, err := dur.BatchAccess(sendable(reqs)); !errors.Is(err, errPartition) {
				t.Fatalf("the failing delivery: %v, want the partition's error", err)
			}
			reqs = store.NewRequests(1, testBlock)
			reqs.SetRow(0, store.OpRead, 2, 0, 1, 0, nil)
			if _, err := dur.BatchAccess(sendable(reqs)); !errors.Is(err, errPartition) {
				t.Fatalf("a valid delivery after the failure: %v, want a refusal naming it", err)
			}
			if got := dur.Epoch(); got != 1 {
				t.Fatalf("epoch %d after the failure, want 1", got)
			}
			dur.Close()

			dur = openDurable(t, dir, testConfig(pl.disk))
			defer dur.Close()
			if got := dur.Epoch(); got != 1 {
				t.Fatalf("reopened at epoch %d, want 1", got)
			}
			expectValue(t, dur, 2, 1) // the failed delivery's version 99 must not surface
			if got := dur.Epoch(); got != 2 {
				t.Fatalf("the next delivery took epoch %d, want 2", got)
			}
			writeBatch(t, dur, 2, 3)
			dur.Close()
			dur = openDurable(t, dir, testConfig(pl.disk))
			defer dur.Close()
			if got := dur.Epoch(); got != 3 {
				t.Fatalf("reopened at epoch %d, want 3", got)
			}
			expectValue(t, dur, 2, 3)
		})
	}
}

// TestRecoveryAcknowledgesImageAheadOfCounter: a crash between the disk
// placement's image commit and the counter's bump leaves the image one epoch
// ahead; that epoch is applied in full, so recovery acknowledges it.
func TestRecoveryAcknowledgesImageAheadOfCounter(t *testing.T) {
	dir := t.TempDir()
	dur := openDurable(t, dir, testConfig(true))
	loadObjects(t, dur, 6)
	writeBatch(t, dur, 5, 1)
	// The partition's next scan, behind the counter's back.
	dur.image.SetMark(dur.Epoch() + 1)
	dur.image.Begin()
	if err := dur.image.Scan(0, 6, func(i int, blks []byte) {
		if i == 0 { // the run of the segment holding block 2
			fillValue(blks[2*testBlock:3*testBlock], 3, 4)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := dur.image.Commit(); err != nil {
		t.Fatal(err)
	}
	dur.Close()

	dur2 := openDurable(t, dir, testConfig(true))
	defer dur2.Close()
	if got := dur2.Epoch(); got != 2 {
		t.Fatalf("epoch %d, want 2 (the committed epoch acknowledged)", got)
	}
	expectValue(t, dur2, 3, 4)
	expectValue(t, dur2, 5, 1)
}

// stateFiles reads every file under dir but the trusted counter — or only
// the one named only, when it is not empty: what a host rolling the
// partition back would keep.
func stateFiles(t *testing.T, dir, only string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == counterFile || (only != "" && d.Name() != only) {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestRollbackDetected(t *testing.T) {
	for _, row := range []struct {
		name string
		disk bool
		only string
	}{
		{"memory", false, ""}, {"disk", true, ""},
		// A stale image under the current log, which starts past it.
		{"memory/image", false, "registry"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(row.disk)
			cfg.SnapshotEvery = 2 // an image before batch 3
			dur := openDurable(t, dir, cfg)
			loadObjects(t, dur, 10)
			writeBatch(t, dur, 1, 1)

			// Host stashes a validly-sealed copy of the state...
			stale := stateFiles(t, dir, row.only)
			writeBatch(t, dur, 1, 2)
			writeBatch(t, dur, 1, 3)
			dur.Close()

			// ...and serves it after more epochs were acknowledged.
			for path, b := range stale {
				if err := os.WriteFile(path, b, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			_, err := NewDurable(dir, cfg, newPartition)
			if !errors.Is(err, ErrRollback) {
				t.Fatalf("stale state: err = %v, want ErrRollback", err)
			}
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("ErrRollback must be in the ErrIntegrity class, got %v", err)
			}
		})
	}
}

// damageCases are the files of a state directory after loadObjects(10) and
// one batch, under the placement that has them: the memory rows keep the
// file's name, the disk rows are prefixed with disk/.
var damageCases = []struct {
	file string
	disk bool
}{
	{walFile, false}, {counterFile, false},
	{idsFile(1), false}, {"segments/registry", false}, {"segments/segments-1.dat", false},
	{idsFile(1), true}, {"segments/registry", true}, {"segments/segments-1.dat", true},
}

func damageName(file string, disk bool) string {
	if disk {
		return "disk/" + file
	}
	return file
}

func TestMissingFilesDetected(t *testing.T) {
	for _, c := range damageCases {
		t.Run(damageName(c.file, c.disk), func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, testConfig(c.disk))
			loadObjects(t, dur, 10)
			writeBatch(t, dur, 1, 1)
			dur.Close()
			if err := os.Remove(filepath.Join(dir, c.file)); err != nil {
				t.Fatal(err)
			}
			dur2, err := NewDurable(dir, testConfig(c.disk), newPartition)
			if err == nil {
				dur2.Close()
				// Deleting epoch.ctr models destroying the trusted counter —
				// real counter hardware cannot be erased by the host, so the
				// simulation accepts a silently-fresh counter only when it
				// never reaches this branch.
				if c.file != counterFile {
					t.Fatalf("deleting %s went undetected", c.file)
				}
				t.Skip("counter deletion is outside the modeled threat (hardware counter)")
			}
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("deleting %s: err = %v, want ErrIntegrity class", c.file, err)
			}
		})
	}
}

func TestTamperDetected(t *testing.T) {
	for _, c := range damageCases {
		t.Run(damageName(c.file, c.disk), func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, testConfig(c.disk))
			loadObjects(t, dur, 10)
			writeBatch(t, dur, 1, 1)
			dur.Close()

			path := filepath.Join(dir, c.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.file == counterFile:
				// One damaged slot is what a crash mid-increment leaves (see
				// TestCounterSlots); tampering is damage to both.
				b[5] ^= 0x40
				b[counterSlotStride+5] ^= 0x40
			case strings.HasSuffix(c.file, ".dat"):
				// Half the slots are the other parity's: damage every slot.
				for off := 20; off < len(b); off += 4096 {
					b[off] ^= 0x40
				}
			default:
				b[len(b)/2] ^= 0x40
			}
			if err := os.WriteFile(path, b, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = NewDurable(dir, testConfig(c.disk), newPartition)
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("tampering %s: err = %v, want ErrIntegrity class", c.file, err)
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
	dur := openDurable(t, dirPath, testConfig(false))
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
	if err := sealWAL(dur.log, dur.ctr.Current()+1, []*store.Requests{reqs}, testBlock); err != nil {
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

	dur2 := openDurable(t, dirPath, testConfig(false))
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
	dur := openDurable(t, dirPath, testConfig(false))
	loadObjects(t, dur, 2)
	dur.Close()
	_, err := NewDurable(dirPath, Config{BlockSize: 64}, func(scan suboram.BlockStore) Partition {
		return suboram.New(suboram.Config{BlockSize: 64, Store: scan})
	})
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
	ctr, err := openCounter(d)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Current() != 0 {
		t.Fatalf("fresh counter = %d, want 0", ctr.Current())
	}
	for i := uint64(1); i <= 5; i++ {
		if got := ctr.Increment(); got != i {
			t.Fatalf("Increment = %d, want %d", got, i)
		}
	}
	ctr2, err := openCounter(d)
	if err != nil {
		t.Fatal(err)
	}
	if ctr2.Current() != 5 {
		t.Fatalf("reloaded counter = %d, want 5", ctr2.Current())
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
	ctr, err := openCounter(d)
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
		return openCounter(d)
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
