package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/wirecode"
)

// testEpochRec builds a shape-realistic epoch record: L planes, S
// partitions, α rows per partition, R requests per plane.
func testEpochRec(epoch uint64, L, S, alpha, R, blockSize int) *JournalEpoch {
	e := &JournalEpoch{
		Epoch:      epoch,
		BlockSize:  blockSize,
		ACLOK:      true,
		Partitions: S,
		Planes:     make([]JournalPlane, L),
	}
	for i := range e.Planes {
		p := &e.Planes[i]
		p.OK = true
		p.PerSub = alpha
		p.Batch = store.NewRequests(alpha*S, blockSize)
		for j := 0; j < p.Batch.Len(); j++ {
			p.Batch.SetRow(j, 1, epoch*1000+uint64(j), uint32(j/alpha), uint64(j), uint64(j), nil)
		}
		p.Dropped = []uint64{epoch + 1}
		p.Reqs = store.NewRequests(R, blockSize)
		p.IDs = make([]uint64, R)
		for j := 0; j < R; j++ {
			p.Reqs.SetRow(j, 2, epoch*500+uint64(j), 0, uint64(j), uint64(j), []byte("v"))
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
	if got.Epoch != want.Epoch || got.BlockSize != want.BlockSize || got.ACLOK != want.ACLOK ||
		got.Partitions != want.Partitions {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Planes) != len(want.Planes) {
		t.Fatalf("planes: got %d want %d", len(got.Planes), len(want.Planes))
	}
	for i := range got.Planes {
		gp, wp := &got.Planes[i], &want.Planes[i]
		if gp.OK != wp.OK || gp.PerSub != wp.PerSub {
			t.Fatalf("plane %d header mismatch", i)
		}
		if gp.Batch.Len() != wp.Batch.Len() {
			t.Fatalf("plane %d batch len: got %d want %d", i, gp.Batch.Len(), wp.Batch.Len())
		}
		for j := 0; j < gp.Batch.Len(); j++ {
			if gp.Batch.Key[j] != wp.Batch.Key[j] || gp.Batch.Op[j] != wp.Batch.Op[j] {
				t.Fatalf("plane %d batch row %d mismatch", i, j)
			}
		}
		if gp.Reqs.Len() != wp.Reqs.Len() || len(gp.IDs) != len(wp.IDs) {
			t.Fatalf("plane %d routing table shape mismatch", i)
		}
		for j := range gp.IDs {
			if gp.IDs[j] != wp.IDs[j] || gp.Reqs.Key[j] != wp.Reqs.Key[j] || gp.Reqs.Op[j] != wp.Reqs.Op[j] ||
				gp.Reqs.Seq[j] != wp.Reqs.Seq[j] || gp.Reqs.Client[j] != wp.Reqs.Client[j] {
				t.Fatalf("plane %d row %d mismatch", i, j)
			}
		}
		if (gp.Denied == nil) != (wp.Denied == nil) {
			t.Fatalf("plane %d denied mask presence mismatch", i)
		}
		for j := range gp.Denied {
			if gp.Denied[j] != wp.Denied[j] {
				t.Fatalf("plane %d denied %d mismatch", i, j)
			}
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
	e1 := testEpochRec(1, 2, 3, 4, 5, testBlock)
	e2 := testEpochRec(2, 2, 3, 4, 5, testBlock)
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
	pending[0].Release()
}

func TestJournalOutOfOrderBegin(t *testing.T) {
	j, _, err := OpenJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Begin(testEpochRec(5, 1, 1, 2, 2, testBlock)); err == nil {
		t.Fatal("Begin(5) on a fresh journal should fail (want epoch 1)")
	}
}

func TestJournalRollbackDetection(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 2, 2, 3, testBlock)); err != nil {
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
		pending[0].Release()
	})
}

func TestJournalTamperDetection(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 1, 2, 2, testBlock)); err != nil {
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
	if err := j.Begin(testEpochRec(1, 1, 1, 2, 2, testBlock)); err != nil {
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
	if err := j2.Begin(testEpochRec(2, 1, 1, 2, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCrashArtifactPastCounterDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(testEpochRec(1, 1, 1, 2, 2, testBlock)); err != nil {
		t.Fatal(err)
	}
	// Append a fully-written epoch-2 record without bumping the counter,
	// simulating a crash after the append's sync but before the counter
	// bump: the record authenticates yet was never acknowledged.
	e2 := testEpochRec(2, 1, 1, 2, 2, testBlock)
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
	pending[0].Release()
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
		if err := j.Begin(testEpochRec(e, 1, 2, 3, 4, testBlock)); err != nil {
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
	if err := j2.Begin(testEpochRec(last+1, 1, 2, 3, 4, testBlock)); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecordLenClosedForm: the bytes Begin writes equal
// JournalRecordLen over the public shape, whatever the secrets — keys,
// values, reply IDs — and Complete's marker is the fixed 8-byte record.
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
	const L, S, alpha, R = 2, 3, 4, 5
	planeReqs := []int{R, R}
	for epoch, seed := range []uint64{3, 0xdeadbeef} {
		e := testEpochRec(uint64(epoch+1), L, S, alpha, R, testBlock)
		for i := range e.Planes {
			p := &e.Planes[i]
			p.Dropped = nil
			p.Denied = nil
			for jr := 0; jr < p.Batch.Len(); jr++ {
				p.Batch.Key[jr] = seed * uint64(jr+1)
			}
			for jr := range p.IDs {
				p.IDs[jr] = seed<<32 | uint64(jr)
				p.Reqs.Key[jr] = seed + uint64(jr)
			}
		}
		before := size()
		if err := j.Begin(e); err != nil {
			t.Fatal(err)
		}
		if got, want := size()-before, JournalRecordLen(L, S, alpha, planeReqs, testBlock); got != want {
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

// TestJournalRecordDropsDerivableColumns pins what the v4 record no longer
// stores against the v3 layout: the S per-partition (lbID, seq) delivery
// tags, and each request's Seq and Client columns, which are the row index
// and rebuilt on decode — 16·S + 16·ΣR bytes. Begin refuses a plane whose
// columns are not that identity rather than journal what decode cannot
// rebuild.
func TestJournalRecordDropsDerivableColumns(t *testing.T) {
	const L, S, alpha = 2, 3, 4
	planeReqs := []int{5, 7}
	const sumR = 5 + 7
	frame := wirecode.FrameLen(alpha*S, testBlock)
	v3 := logRecordLen(21 + 16*S + L*(18+frame) + 33*sumR)
	if got, want := v3-JournalRecordLen(L, S, alpha, planeReqs, testBlock), 16*S+16*sumR; got != want {
		t.Fatalf("v4 record is %d bytes shorter than v3, want 16·S + 16·ΣR = %d", got, want)
	}

	j, _, err := OpenJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := testEpochRec(1, 1, S, alpha, 3, testBlock)
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
		if err := j.Begin(testEpochRec(e, 1, 2, 3, 4, testBlock)); err != nil {
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
		if err := j.Begin(testEpochRec(e, 1, 1, 2, 2, testBlock)); err != nil {
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
