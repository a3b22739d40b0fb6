// Epoch journal: the root load balancer's sealed, crash-recoverable record
// of every epoch it is about to dispatch (paper §5's failure story extended
// to the LB plane). Before stage-B dispatch the root appends one sealed
// record holding what the epoch's stage A read: each plane's request
// snapshot (after the ACL flip), its per-request reply IDs and ACL mask,
// and the public shape (L, S, block size, λ) the batches were built under.
// A load balancer's batches are a deterministic function of that snapshot
// and the pinned routing key (paper §4.1), so a standby root that opens the
// same journal re-runs stage A and re-issues byte-identical batches. The
// record holds no delivery tag: the root tags epoch E's delivery
// (stream, E), which a successor derives again, so partitions that already
// applied a batch answer from their delivery windows instead of re-applying —
// the epoch is all-or-nothing across root crashes.
//
// The journal is a sealed log (sealedlog.go) of epoch records, done markers
// and checkpoints. The trusted FileCounter is bumped after each epoch record
// is durably appended (the acknowledge point): a journal that ends before
// the counter was rolled back (ErrRollback), and an epoch record past it is
// the crash artifact of an append nobody acknowledged — that epoch was never
// dispatched — and ends the log.
//
// A done marker is appended without a sync of its own; the next epoch
// record's sync carries it. A lost marker only makes the successor replay
// an epoch that had completed, which the partitions' delivery windows and the
// reply window already make idempotent (DESIGN.md §8).
//
// Obliviousness: every record's length is a closed-form function of public
// parameters only (JournalRecordLen) — the per-plane request counts R_i,
// which the network adversary already observes, and the block size. Record
// contents are AEAD-sealed; the journal's I/O trace (offsets and lengths)
// is bit-identical across request streams that differ only in secrets, and
// internal/trace asserts it.
package persist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"snoopy/internal/hostfs"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

const (
	journalFile    = "journal"
	journalContext = "snoopy-persist/journal/v5"

	journalKindEpoch = 1
	journalKindDone  = 2
	journalKindCkpt  = 3

	// journalCompactEvery bounds file growth: once no epoch is in flight and
	// this many records accumulated, the file is atomically rewritten to one
	// checkpoint record — the one create + rename the journal ever does,
	// once in 64 epochs. Public: a function of the epoch schedule.
	journalCompactEvery = 128
)

// JournalPlane is one load-balancer plane's stage-A input and its
// client→reply routing table.
type JournalPlane struct {
	// Reqs is the plane's request snapshot as stage A read it: row j is
	// queue position j (Seq = Client = j, which Begin checks), its Op the
	// one after the ACL flip. Op, Key and the value blocks are journaled;
	// a decoded snapshot has Seq and Client rebuilt.
	Reqs *store.Requests
	// IDs[j] is the reply ID of queue position j (0 = no idempotent
	// tracking asked for; len = Reqs.Len()).
	IDs []uint64
	// Denied, when non-nil, is the per-request ACL denial mask.
	Denied []uint8
}

// JournalEpoch is one journaled epoch: everything a standby root needs to
// re-run the epoch and route the replies.
type JournalEpoch struct {
	Epoch     uint64
	BlockSize int
	// Lambda is the security parameter the batches were sized under.
	Lambda int
	// ACLOK is false when the epoch's ACL resolution failed (stage C fails
	// every request; replay parks nothing).
	ACLOK bool
	// Partitions is S, the partition count the batches are laid out for.
	Partitions int
	Planes     []JournalPlane
}

// Journal is the root's sealed epoch journal. All methods are safe for
// concurrent use (Begin runs under the root's epoch mutex, Complete from
// concurrent stage-C goroutines).
type Journal struct {
	mu    sync.Mutex
	state // the directory, the trusted counter and the journal file

	open         []uint64 // journaled epochs not yet complete
	last         uint64   // last acknowledged (journaled) epoch
	sinceCompact int
	compactEvery int // journalCompactEvery (tests shorten it)
	telErrors    *telemetry.Counter
}

// OpenJournal opens (or creates) the epoch journal in dirPath, verifies it
// against the trusted counter, and returns the journaled-but-incomplete
// epochs in ascending order — the epochs a standby root must replay. rec,
// when non-nil, traces every file operation for the obliviousness tests;
// reg, when non-nil, counts the journal's and its counter's writes and
// syncs, and Complete's failures (persist_journal_errors_total).
func OpenJournal(dirPath string, rec *trace.Recorder, reg *telemetry.Registry) (*Journal, []*JournalEpoch, error) {
	return openJournal(nil, dirPath, rec, reg)
}

func openJournal(fs hostfs.FS, dirPath string, rec *trace.Recorder, reg *telemetry.Registry) (*Journal, []*JournalEpoch, error) {
	st, err := openState(fs, dirPath, nil, rec, reg, journalFile, journalContext, "journal")
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{state: st, compactEvery: journalCompactEvery,
		telErrors: reg.Counter("persist_journal_errors_total")}
	pending, err := j.recover()
	if err != nil {
		j.close()
		return nil, nil, err
	}
	return j, pending, nil
}

// LastEpoch returns the last journaled (acknowledged) epoch; a recovering
// root continues its epoch sequence from here.
func (j *Journal) LastEpoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last
}

// Begin durably journals an epoch before its dispatch. Epochs must be
// journaled in order (rec.Epoch == LastEpoch()+1). On return the record is
// synced and the trusted counter bumped: the epoch is now guaranteed to
// either complete or be replayed by a successor.
func (j *Journal) Begin(rec *JournalEpoch) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ready(); err != nil {
		return err
	}
	if rec.Epoch != j.last+1 {
		return errCorrupt("journal: epoch %d out of order (last journaled %d)", rec.Epoch, j.last)
	}
	// The build buffer grows to the record's size once; after that an epoch
	// of the same public shape is encoded in place.
	body, err := rec.encode(j.log.start(0))
	if err != nil {
		return err
	}
	if logRecordLen(len(body)-logHdrLen)-4 > maxRecord {
		return fmt.Errorf("persist: a journal record of %d bytes exceeds the %d-byte record limit", len(body), maxRecord)
	}
	if err := j.append(journalKindEpoch, body, true); err != nil {
		return err
	}
	// The counter bump is the acknowledge point: a crash before it leaves a
	// record past the counter, which recovery discards as never-dispatched.
	if err := j.ack(); err != nil {
		return err
	}
	j.last = rec.Epoch
	j.open = append(j.open, rec.Epoch)
	return nil
}

// Complete marks a journaled epoch fully replied (an unsynced marker: see
// the file comment) and, once no epoch is in flight and the file is long
// enough, compacts the journal to one checkpoint record. A failure, counted
// in persist_journal_errors_total, costs at most a redundant replay.
func (j *Journal) Complete(epoch uint64) (err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := slices.Index(j.open, epoch)
	if i < 0 {
		return nil // already complete (replayed twice, or pre-checkpoint)
	}
	defer func() {
		if err != nil {
			j.telErrors.Inc()
		}
	}()
	if err := j.ready(); err != nil {
		return err
	}
	if err := j.append(journalKindDone, binary.LittleEndian.AppendUint64(j.log.start(8), epoch), false); err != nil {
		return err
	}
	j.open = slices.Delete(j.open, i, i+1)
	if len(j.open) == 0 && j.sinceCompact >= j.compactEvery {
		return j.compact()
	}
	return nil
}

// Close closes the journal's files.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.close()
}

// append seals and writes the record built in rec under the next sequence
// number. Caller holds j.mu.
func (j *Journal) append(kind uint8, rec []byte, sync bool) error {
	j.log.seal(max(j.log.next, 1), kind, rec)
	if err := j.log.write(sync); err != nil {
		return err
	}
	j.sinceCompact++
	return nil
}

// compact atomically replaces the journal with one checkpoint record: every
// epoch through j.last is complete. The old file stays open and appendable
// until the new one is in place, so a failed compaction changes nothing.
// Caller holds j.mu and has verified no epoch is in flight.
func (j *Journal) compact() error {
	seq := max(j.log.next, 1)
	ckpt, err := j.d.replaceLog(journalFile, journalContext, "journal", seq, func(l *sealedLog) error {
		l.seal(seq, journalKindCkpt, binary.LittleEndian.AppendUint64(l.start(8), j.last))
		return l.write(false)
	})
	if ckpt != nil {
		// The new file is the journal now: the old handle names an unlinked
		// file, and appending to it would journal nothing.
		j.log.close()
		j.log, j.sinceCompact = ckpt, 0
	}
	return err
}

// recover replays the journal against the trusted counter, returning the
// incomplete epochs in ascending order.
func (j *Journal) recover() (pending []*JournalEpoch, err error) {
	ctr := j.ctr.Current()
	base := uint64(0) // every epoch through base is complete (checkpoint)
	reached := uint64(0)
	first := true
	why, err := j.log.replay(func(_ uint64, kind uint8, pt []byte) (bool, error) {
		if len(pt) < 8 {
			return false, errCorrupt("journal: record of %d bytes", len(pt))
		}
		epoch := binary.LittleEndian.Uint64(pt)
		switch kind {
		case journalKindCkpt:
			if !first {
				return false, errCorrupt("journal: checkpoint after other records")
			}
			base, reached = epoch, epoch
		case journalKindEpoch:
			if epoch > ctr {
				// Never acknowledged, never dispatched: the crash tail.
				return false, nil
			}
			if epoch != reached+1 {
				return false, errCorrupt("journal: epoch %d follows epoch %d", epoch, reached)
			}
			je, err := decodeJournalEpoch(pt)
			if err != nil {
				return false, err
			}
			reached = epoch
			pending = append(pending, je)
		case journalKindDone:
			if i := slices.IndexFunc(pending, func(je *JournalEpoch) bool { return je.Epoch == epoch }); i >= 0 {
				pending = slices.Delete(pending, i, i+1)
			}
		default:
			return false, errCorrupt("journal: unknown record kind %d", kind)
		}
		first = false
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	// Every acknowledged epoch in (base, ctr] must be present: a journal
	// that ends before the counter was rolled back.
	if base > ctr || reached != ctr {
		return nil, fmt.Errorf("%w (journal reaches epoch %d: %s; counter at %d)", ErrRollback, reached, why, ctr)
	}
	j.last = ctr
	for _, je := range pending {
		j.open = append(j.open, je.Epoch)
	}
	return pending, nil
}

// --- epoch payload codec -------------------------------------------------
//
// Fixed little-endian layout; every length below is a function of the
// public shape (L, R_i, blockSize) only:
//
//	u64 epoch | u32 L | u32 S | u32 blockSize | u32 λ | u8 aclOK
//	per plane: u32 n | n×u8 op | n×u64 key | n×u64 id | n×blockSize value
//	           | u8 hasDenied + [n]u8

const (
	journalHeaderLen = 8 + 4*4 + 1
	journalPlaneLen  = 4 + 1     // without the rows and the mask
	journalRowLen    = 1 + 8 + 8 // op, key, id (the value block comes on top)
)

// JournalRecordLen is the exact number of bytes the journal grows by when an
// epoch is journaled: planeReqs[i] requests in plane i of blockSize-byte
// values — plus a byte per request under an ACL (public configuration).
func JournalRecordLen(planeReqs []int, blockSize int) int {
	n := journalHeaderLen + len(planeReqs)*journalPlaneLen
	for _, r := range planeReqs {
		n += r * (journalRowLen + blockSize)
	}
	return logRecordLen(n)
}

// encode appends e's payload to b.
func (e *JournalEpoch) encode(b []byte) ([]byte, error) {
	le := binary.LittleEndian
	u8 := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	keys := func(ks []uint64) {
		for _, k := range ks {
			b = le.AppendUint64(b, k)
		}
	}
	b = le.AppendUint64(b, e.Epoch)
	b = le.AppendUint32(b, uint32(len(e.Planes)))
	b = le.AppendUint32(b, uint32(e.Partitions))
	b = le.AppendUint32(b, uint32(e.BlockSize))
	b = le.AppendUint32(b, uint32(e.Lambda))
	u8(e.ACLOK)
	for i := range e.Planes {
		p := &e.Planes[i]
		n := p.Reqs.Len()
		if len(p.IDs) != n || (p.Denied != nil && len(p.Denied) != n) || p.Reqs.BlockSize != e.BlockSize {
			return nil, fmt.Errorf("persist: journal epoch %d plane %d: %d reply IDs and a %d-row ACL mask for %d requests of %d-byte blocks (epoch block %d)",
				e.Epoch, i, len(p.IDs), len(p.Denied), n, p.Reqs.BlockSize, e.BlockSize)
		}
		for j := range n {
			if p.Reqs.Seq[j] != uint64(j) || p.Reqs.Client[j] != uint64(j) {
				return nil, fmt.Errorf("persist: journal epoch %d plane %d row %d: Seq %d, Client %d are not the row index",
					e.Epoch, i, j, p.Reqs.Seq[j], p.Reqs.Client[j])
			}
		}
		b = le.AppendUint32(b, uint32(n))
		b = append(b, p.Reqs.Op...)
		keys(p.Reqs.Key)
		keys(p.IDs)
		b = append(b, p.Reqs.Data[:n*e.BlockSize]...)
		u8(p.Denied != nil)
		b = append(b, p.Denied...)
	}
	return b, nil
}

// journalCursor decodes the fixed layout defensively: the payload is
// AEAD-authenticated, but a decode must still fail closed, never panic.
type journalCursor struct {
	b   []byte
	err error
}

func (c *journalCursor) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b) {
		if c.err == nil {
			c.err = errCorrupt("journal: payload truncated")
		}
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *journalCursor) u32() int {
	raw := c.take(4)
	if raw == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(raw))
}

// bool decodes a flag byte, which encode writes as 0 or 1 only.
func (c *journalCursor) bool() bool {
	raw := c.take(1)
	if raw != nil && raw[0] > 1 {
		c.err = errCorrupt("journal: flag byte %d", raw[0])
	}
	return raw != nil && raw[0] == 1
}

// keys decodes n little-endian words (none once the cursor has failed).
func (c *journalCursor) keys(n int) []uint64 {
	raw := c.take(8 * n)
	ks := make([]uint64, len(raw)/8)
	for i := range ks {
		ks[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return ks
}

// maxJournalDim bounds the decoded partition count; the plane and request
// counts are bounded by the bytes left, so a corrupted payload cannot force
// huge allocations.
const maxJournalDim = 1 << 20

func decodeJournalEpoch(pt []byte) (*JournalEpoch, error) {
	c := &journalCursor{b: pt}
	epoch := c.keys(1)
	L, S, blockSize, lambda := c.u32(), c.u32(), c.u32(), c.u32()
	aclOK := c.bool()
	if c.err != nil {
		return nil, c.err
	}
	if L > len(c.b)/journalPlaneLen || S > maxJournalDim || blockSize <= 0 || blockSize > maxRecord {
		return nil, errCorrupt("journal: epoch %d shape (%d,%d,%d) out of range", epoch[0], L, S, blockSize)
	}
	e := &JournalEpoch{
		Epoch:      epoch[0],
		BlockSize:  blockSize,
		Lambda:     lambda,
		ACLOK:      aclOK,
		Partitions: S,
		Planes:     make([]JournalPlane, L),
	}
	for i := range e.Planes {
		p := &e.Planes[i]
		n := c.u32()
		if c.err != nil || n > len(c.b)/(journalRowLen+blockSize) {
			return nil, errCorrupt("journal: epoch %d plane %d: %d requests in %d bytes", e.Epoch, i, n, len(c.b))
		}
		p.Reqs = store.NewRequests(n, blockSize)
		copy(p.Reqs.Op, c.take(n))
		p.Reqs.Key = c.keys(n)
		p.IDs = c.keys(n)
		copy(p.Reqs.Data, c.take(n*blockSize))
		for j := range n {
			p.Reqs.Seq[j], p.Reqs.Client[j] = uint64(j), uint64(j)
		}
		if c.bool() {
			p.Denied = append(make([]uint8, 0, n), c.take(n)...)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, errCorrupt("journal: epoch %d payload has %d trailing bytes", e.Epoch, len(c.b))
	}
	return e, nil
}
