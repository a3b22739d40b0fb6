package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/enclave"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const segTestBlock = 32

func segTestCfg() SegConfig {
	return SegConfig{BlockSize: segTestBlock, SegmentBlocks: 4}
}

func segBuild(ss *segstore.Store) StorePartition {
	return suboram.New(suboram.Config{BlockSize: segTestBlock, Store: ss})
}

func segValue(id uint64, version int) []byte {
	b := make([]byte, segTestBlock)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	return b
}

func newSegInited(t *testing.T, path string, n int) *SegDurable {
	t.Helper()
	sd, err := NewSegDurable(path, segBuild, segTestCfg())
	if err != nil {
		t.Fatalf("NewSegDurable: %v", err)
	}
	ids := make([]uint64, n)
	data := make([]byte, n*segTestBlock)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i * 3)
		copy(data[i*segTestBlock:], segValue(ids[i], 0))
	}
	if err := sd.Init(ids, data); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return sd
}

func segWrite(t *testing.T, sd *SegDurable, id uint64, version int) {
	t.Helper()
	reqs := store.NewRequests(1, segTestBlock)
	reqs.SetRow(0, store.OpWrite, id, 0, 0, 0, segValue(id, version))
	if _, err := sd.BatchAccess(reqs); err != nil {
		t.Fatalf("write batch: %v", err)
	}
}

func segRead(t *testing.T, sd *SegDurable, id uint64) []byte {
	t.Helper()
	reqs := store.NewRequests(1, segTestBlock)
	reqs.SetRow(0, store.OpRead, id, 0, 0, 0, nil)
	out, err := sd.BatchAccess(reqs)
	if err != nil {
		t.Fatalf("read batch: %v", err)
	}
	return append([]byte(nil), out.Block(0)...)
}

func TestSegDurableRecoverAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20) // 5 segments
	segWrite(t, sd, 6, 1)
	segWrite(t, sd, 9, 2)
	if got := sd.Epoch(); got != 2 {
		t.Fatalf("epoch %d after two batches", got)
	}
	sd.Close()

	sd2, err := NewSegDurable(dir, segBuild, segTestCfg())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sd2.Close()
	if !sd2.Recovered() {
		t.Fatal("reopen did not recover")
	}
	if sd2.RolledForward() {
		t.Fatal("clean shutdown should not roll forward")
	}
	if !bytes.Equal(segRead(t, sd2, 6), segValue(6, 1)) {
		t.Fatal("write to 6 lost across reopen")
	}
	if !bytes.Equal(segRead(t, sd2, 9), segValue(9, 2)) {
		t.Fatal("write to 9 lost across reopen")
	}
	if !bytes.Equal(segRead(t, sd2, 0), segValue(0, 0)) {
		t.Fatal("initial value of 0 corrupted")
	}
}

// TestSegDurableRollForwardFromWAL simulates a crash after the redo record
// became durable but before any segment commit: the reopened partition must
// apply the logged batch and acknowledge it.
func TestSegDurableRollForwardFromWAL(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20)
	segWrite(t, sd, 6, 1)
	epoch := sd.Epoch()
	// Craft the crash artifact: a complete WAL record set for epoch+1
	// containing a write to id 9, fsynced, with no segment-store changes.
	reqs := store.NewRequests(2, segTestBlock)
	reqs.SetRow(0, store.OpWrite, 9, 0, 0, 0, segValue(9, 7))
	reqs.SetRow(1, store.OpRead, 6, 0, 1, 1, nil)
	sd.mu.Lock()
	if err := sd.log.cut(0, epoch+1); err != nil {
		t.Fatal(err)
	}
	if err := sealWAL(sd.log, epoch+1, reqs, segTestBlock); err != nil {
		t.Fatal(err)
	}
	if err := sd.log.write(true); err != nil {
		t.Fatal(err)
	}
	sd.mu.Unlock()
	sd.Close() // "crash": scan never ran, registry still at epoch

	sd2, err := NewSegDurable(dir, segBuild, segTestCfg())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sd2.Close()
	if !sd2.RolledForward() {
		t.Fatal("logged batch was not rolled forward")
	}
	if got := sd2.Epoch(); got != epoch+1 {
		t.Fatalf("epoch %d after roll-forward, want %d", got, epoch+1)
	}
	if !bytes.Equal(segRead(t, sd2, 9), segValue(9, 7)) {
		t.Fatal("rolled-forward write to 9 missing")
	}
	if !bytes.Equal(segRead(t, sd2, 6), segValue(6, 1)) {
		t.Fatal("pre-crash write to 6 lost")
	}
}

// TestSegDurableCommitBeforeCounterCrash simulates a crash between the
// registry commit and the counter increment: the store is one epoch ahead
// and recovery must verify it and acknowledge.
func TestSegDurableCommitBeforeCounterCrash(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20)
	segWrite(t, sd, 6, 1)
	epoch := sd.Epoch()
	// Advance the segment store one epoch behind the persistence layer's
	// back (contents unchanged), leaving the counter at epoch.
	ss := sd.ss
	ss.Begin()
	if err := ss.Scan(0, ss.NumBlocks(), func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Commit(); err != nil {
		t.Fatal(err)
	}
	sd.Close()

	sd2, err := NewSegDurable(dir, segBuild, segTestCfg())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sd2.Close()
	if got := sd2.Epoch(); got != epoch+1 {
		t.Fatalf("epoch %d, want %d (committed epoch acknowledged)", got, epoch+1)
	}
	if !sd2.RolledForward() {
		t.Fatal("committed-but-unacknowledged epoch not reported as rolled forward")
	}
	if !bytes.Equal(segRead(t, sd2, 6), segValue(6, 1)) {
		t.Fatal("contents lost")
	}
}

// TestSegDurableDirectoryRollbackDetected restores a stale copy of the
// whole partition directory minus the counter — the classic rollback attack
// — and expects recovery to refuse.
func TestSegDurableDirectoryRollbackDetected(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20)
	segWrite(t, sd, 6, 1)
	// Snapshot the sealed state (registry + segments + wal + ids), then
	// advance two more epochs.
	stale := map[string][]byte{}
	for _, name := range []string{
		filepath.Join(segStoreDir, "registry"),
		walFile,
		segIDsFile,
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		stale[name] = b
	}
	segDataName := ""
	entries, _ := os.ReadDir(filepath.Join(dir, segStoreDir))
	for _, e := range entries {
		if e.Name() != "registry" {
			segDataName = filepath.Join(segStoreDir, e.Name())
			b, err := os.ReadFile(filepath.Join(dir, segDataName))
			if err != nil {
				t.Fatal(err)
			}
			stale[segDataName] = b
		}
	}
	if segDataName == "" {
		t.Fatal("no segment data file found")
	}
	segWrite(t, sd, 9, 2)
	segWrite(t, sd, 12, 3)
	sd.Close()
	for name, b := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewSegDurable(dir, segBuild, segTestCfg())
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("rolled-back directory accepted: %v", err)
	}
}

func TestSegDurableTamperedIDsFailClosed(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20)
	segWrite(t, sd, 6, 1)
	sd.Close()
	path := filepath.Join(dir, segIDsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = NewSegDurable(dir, segBuild, segTestCfg())
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("tampered ids accepted: %v", err)
	}
}

// TestSegDurableTornWALIgnored truncates the redo log mid-record: the
// logged batch was never acknowledged, so recovery must come up clean at
// the counter epoch rather than fail.
func TestSegDurableTornWALIgnored(t *testing.T) {
	dir := t.TempDir()
	sd := newSegInited(t, dir, 20)
	segWrite(t, sd, 6, 1)
	epoch := sd.Epoch()
	sd.Close()
	// The WAL still holds the applied record of the last batch; tear it.
	path := filepath.Join(dir, walFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	sd2, err := NewSegDurable(dir, segBuild, segTestCfg())
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer sd2.Close()
	if got := sd2.Epoch(); got != epoch {
		t.Fatalf("epoch %d, want %d", got, epoch)
	}
	if !bytes.Equal(segRead(t, sd2, 6), segValue(6, 1)) {
		t.Fatal("acknowledged write lost")
	}
}
