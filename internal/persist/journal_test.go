package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// testEpochRec builds a shape-realistic epoch record: L planes of R
// requests each, batched for S partitions.
func testEpochRec(epoch uint64, L, S, R, blockSize int) *JournalEpoch {
	e := &JournalEpoch{
		Epoch:      epoch,
		BlockSize:  blockSize,
		Lambda:     32,
		ACLOK:      true,
		Partitions: S,
		Planes:     make([]JournalPlane, L),
	}
	for i := range e.Planes {
		p := &e.Planes[i]
		p.Reqs = store.NewRequests(R, blockSize)
		p.IDs = make([]uint64, R)
		for j := 0; j < R; j++ {
			p.Reqs.SetRow(j, 2, epoch*500+uint64(j), 0, uint64(j), uint64(j), []byte{'v', byte(i), byte(j)})
			p.IDs[j] = epoch<<20 | uint64(i)<<10 | uint64(j)
		}
		p.Denied = make([]uint8, R)
		if R > 1 {
			p.Denied[1] = 1
		}
	}
	return e
}

// encodeFor encodes e into j's build buffer, as Begin does.
func encodeFor(t *testing.T, j *Journal, e *JournalEpoch) []byte {
	t.Helper()
	body, err := e.encode(j.log.start(0))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func sameEpochRec(t *testing.T, got, want *JournalEpoch) {
	t.Helper()
	if got.Epoch != want.Epoch || got.BlockSize != want.BlockSize || got.Lambda != want.Lambda ||
		got.ACLOK != want.ACLOK || got.Partitions != want.Partitions {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Planes) != len(want.Planes) {
		t.Fatalf("planes: got %d want %d", len(got.Planes), len(want.Planes))
	}
	for i := range got.Planes {
		gp, wp := &got.Planes[i], &want.Planes[i]
		if !reflect.DeepEqual(gp.Reqs, wp.Reqs) || !reflect.DeepEqual(gp.IDs, wp.IDs) ||
			!reflect.DeepEqual(gp.Denied, wp.Denied) {
			t.Fatalf("plane %d mismatch:\n got %+v\nwant %+v", i, gp, wp)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || j.LastEpoch() != 0 {
		t.Fatalf("fresh journal: pending=%d last=%d", len(pending), j.LastEpoch())
	}
	e1 := testEpochRec(1, 2, 3, 5, testBlock)
	e2 := testEpochRec(2, 2, 3, 5, testBlock)
	if err := j.Begin(e1); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(e2); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastEpoch() != 2 {
		t.Fatalf("LastEpoch = %d, want 2", j2.LastEpoch())
	}
	if len(pending) != 1 {
		t.Fatalf("pending = %d epochs, want 1 (epoch 2)", len(pending))
	}
	sameEpochRec(t, pending[0], e2)
}

func TestJournalOutOfOrderBegin(t *testing.T) {
	j, _, err := OpenJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Begin(testEpochRec(5, 1, 1, 2, testBlock)); err == nil {
		t.Fatal("Begin(5) on a fresh journal should fail (want epoch 1)")
	}
}

func TestJournalRollbackDetection(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 2, 3, testBlock)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	t.Run("deleted file", func(t *testing.T) {
		// Host deletes the journal but the trusted counter says epoch 1 was
		// acknowledged.
		tmp := filepath.Join(dir, journalFile+".save")
		if err := os.Rename(filepath.Join(dir, journalFile), tmp); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenJournal(dir, nil, nil)
		if !errors.Is(err, ErrRollback) {
			t.Fatalf("deleted journal: err = %v, want ErrRollback", err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, journalFile)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("truncated to empty", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), nil, 0o600); err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenJournal(dir, nil, nil)
		if !errors.Is(err, ErrRollback) {
			t.Fatalf("truncated journal: err = %v, want ErrRollback", err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("intact again", func(t *testing.T) {
		j, pending, err := OpenJournal(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if len(pending) != 1 || pending[0].Epoch != 1 {
			t.Fatalf("pending = %v, want epoch 1", pending)
		}
	})
}

func TestJournalTamperDetection(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 1, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext bit (past the length prefix and clear prefix).
	raw[logHdrLen+8] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, journalFile), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenJournal(dir, nil, nil)
	if !errors.Is(err, enclave.ErrIntegrity) {
		t.Fatalf("tampered journal: err = %v, want ErrIntegrity class", err)
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 1, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete(1); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append of an unacknowledged epoch-2 record: a
	// torn record past the counter. Recovery must ignore it (epoch 2 was
	// never dispatched) and not treat it as tampering.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x01, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("pending = %d, want 0", len(pending))
	}
	if j2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch = %d, want 1", j2.LastEpoch())
	}
	// The journal must still be appendable after the torn tail: epoch 2
	// re-runs as a fresh epoch.
	if err := j2.Begin(testEpochRec(2, 1, 1, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCrashArtifactPastCounterDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 1, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
	// Append a fully-written epoch-2 record without bumping the counter,
	// simulating a crash after the append's sync but before the counter
	// bump: the record authenticates yet was never acknowledged.
	e2 := testEpochRec(2, 1, 1, 2, testBlock)
	j.mu.Lock()
	err = j.append(journalKindEpoch, encodeFor(t, j, e2), true)
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastEpoch() != 1 {
		t.Fatalf("LastEpoch = %d, want 1", j2.LastEpoch())
	}
	if len(pending) != 1 || pending[0].Epoch != 1 {
		t.Fatalf("pending = %v, want exactly epoch 1", pending)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	compacted := false
	for e := uint64(1); e <= journalCompactEvery+4; e++ {
		if err := j.Begin(testEpochRec(e, 1, 2, 4, testBlock)); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(e); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() < prev {
			compacted = true
		}
		prev = st.Size()
	}
	if !compacted {
		t.Fatalf("journal never compacted over %d begin/complete cycles (final size %d)",
			journalCompactEvery+4, prev)
	}
	last := j.LastEpoch()
	j.Close()

	j2, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("pending = %d, want 0 after compaction", len(pending))
	}
	if j2.LastEpoch() != last {
		t.Fatalf("LastEpoch = %d, want %d across compaction", j2.LastEpoch(), last)
	}
	if err := j2.Begin(testEpochRec(last+1, 1, 2, 4, testBlock)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecordLenClosedForm: the bytes Begin writes equal
// JournalRecordLen over the public shape, whatever the secrets — keys,
// values, ops, reply IDs — and Complete's marker is the fixed 8-byte record.
func TestJournalRecordLenClosedForm(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	size := func() int {
		st, err := os.Stat(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Size())
	}
	const L, S, R = 2, 3, 5
	planeReqs := []int{R, R}
	for epoch, seed := range []uint64{3, 0xdeadbeef} {
		e := testEpochRec(uint64(epoch+1), L, S, R, testBlock)
		for i := range e.Planes {
			p := &e.Planes[i]
			p.Denied = nil
			for jr := range p.IDs {
				p.IDs[jr] = seed<<32 | uint64(jr)
				p.Reqs.Key[jr] = seed + uint64(jr)
				p.Reqs.Op[jr] = uint8(seed>>jr) & 1
				p.Reqs.Block(jr)[0] = byte(seed >> jr)
			}
		}
		before := size()
		if err := j.Begin(e); err != nil {
			t.Fatal(err)
		}
		if got, want := size()-before, JournalRecordLen(planeReqs, testBlock); got != want {
			t.Fatalf("epoch record grew the journal by %d bytes, JournalRecordLen says %d", got, want)
		}
		before = size()
		if err := j.Complete(e.Epoch); err != nil {
			t.Fatal(err)
		}
		if got, want := size()-before, logRecordLen(8); got != want {
			t.Fatalf("done marker grew the journal by %d bytes, want %d", got, want)
		}
	}
}

// TestJournalRecordLenIndependentOfBatchShape: the record holds what stage
// A read, not the batches it built, so its length moves with the request
// counts alone — neither the partition count S nor λ (and with them the
// Theorem-3 batch size α) changes it. Begin refuses a plane whose Seq and
// Client columns are not the row index rather than journal what decode
// cannot rebuild.
func TestJournalRecordLenIndependentOfBatchShape(t *testing.T) {
	j, _, err := OpenJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := JournalRecordLen([]int{7}, testBlock)
	for _, shape := range []struct{ S, lambda int }{{1, 32}, {4, 32}, {64, 32}, {4, 128}, {4, 8}} {
		e := testEpochRec(1, 1, shape.S, 7, testBlock)
		e.Lambda = shape.lambda
		e.Planes[0].Denied = nil // the ACL mask's byte per request is on top
		if got := logRecordLen(len(encodeFor(t, j, e)) - logHdrLen); got != want {
			t.Fatalf("S=%d λ=%d: record of %d bytes, want %d", shape.S, shape.lambda, got, want)
		}
	}

	e := testEpochRec(1, 1, 3, 3, testBlock)
	e.Planes[0].Reqs.Client[1] = 2
	if err := j.Begin(e); err == nil {
		t.Fatal("Begin journaled a plane whose Client column is not the row index")
	}
}

// TestJournalCompleteDoesNotSync: one sync per Begin (plus the counter's),
// none for Complete — the marker rides on the next Begin's.
func TestJournalCompleteDoesNotSync(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, _, err := OpenJournal(t.TempDir(), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	syncs := reg.Counter(`persist_syncs_total{log="journal"}`)
	ctrSyncs := reg.Counter(`persist_syncs_total{log="counter"}`)
	for e := uint64(1); e <= 3; e++ {
		if err := j.Begin(testEpochRec(e, 1, 2, 4, testBlock)); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(e); err != nil {
			t.Fatal(err)
		}
		if syncs.Value() != e || ctrSyncs.Value() != e {
			t.Fatalf("after %d epochs: %d journal syncs, %d counter syncs; want %d each",
				e, syncs.Value(), ctrSyncs.Value(), e)
		}
	}
}

// TestJournalCompactionFailureLeavesJournalAppendable: a compaction that
// cannot write its checkpoint reports the error (and counts it) but the
// journal keeps journaling into the file it had.
func TestJournalCompactionFailureLeavesJournalAppendable(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, _, err := OpenJournal(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the checkpoint's temporary name makes every
	// compaction fail at its first step.
	if err := os.Mkdir(filepath.Join(dir, journalFile+".tmp"), 0o700); err != nil {
		t.Fatal(err)
	}
	failed := 0
	const epochs = journalCompactEvery/2 + 3
	for e := uint64(1); e <= epochs; e++ {
		if err := j.Begin(testEpochRec(e, 1, 1, 2, testBlock)); err != nil {
			t.Fatalf("Begin(%d) after %d failed compactions: %v", e, failed, err)
		}
		if err := j.Complete(e); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no compaction was attempted")
	}
	if got := reg.Counter("persist_journal_errors_total").Value(); got != uint64(failed) {
		t.Fatalf("persist_journal_errors_total = %d, want %d", got, failed)
	}
	j.Close()
	j2, pending, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 || j2.LastEpoch() != epochs {
		t.Fatalf("reopen: %d pending, last epoch %d; want 0 and %d", len(pending), j2.LastEpoch(), epochs)
	}
}
