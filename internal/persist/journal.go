// Epoch journal: the root load balancer's sealed, crash-recoverable record
// of every epoch it is about to dispatch (paper §5's failure story extended
// to the LB plane). Before stage-B dispatch the root appends one sealed
// record holding the epoch's per-plane batches and the client→reply routing
// tables (per-plane request metadata plus per-request reply IDs). A standby
// root that opens the same journal replays the incomplete epochs verbatim.
// The record holds no delivery tag: the root tags epoch E's delivery
// (stream, E), which a successor derives again, so partitions that already
// applied a batch answer from their replay caches instead of re-applying —
// the epoch is all-or-nothing across root crashes.
//
// The journal is a sealed log (sealedlog.go) of epoch records, done markers
// and checkpoints. The trusted FileCounter is bumped after each epoch record
// is durably appended (the acknowledge point): a journal that ends before
// the counter was rolled back (ErrRollback), and an epoch record past it is
// the crash artifact of an append nobody acknowledged — that epoch was never
// dispatched — and ends the log.
//
// A record holds only what replay reads: the batch as a full wire frame
// (replay re-sends it), a plane's request snapshot as the two metadata
// columns MatchResponses reads that are not derivable — its value blocks
// are dead there, and its Seq and Client columns are the row index. A done
// marker is appended without a sync of its own; the next epoch record's
// sync carries it. A lost marker only makes the successor replay an epoch
// that had completed, which the partitions' replay caches and the reply
// window already make idempotent (DESIGN.md §8).
//
// Obliviousness: every record's length is a closed-form function of public
// parameters only (JournalRecordLen) — the plane count L, partition count
// S, the Theorem-3 batch size α, and the per-plane request counts R_i, all
// of which the network adversary already observes. Record contents are
// AEAD-sealed; the journal's I/O trace (offsets and lengths) is
// bit-identical across request streams that differ only in secrets, and
// internal/trace asserts it.
package persist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"snoopy/internal/arena"
	"snoopy/internal/hostfs"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
	"snoopy/internal/wirecode"
)

const (
	journalFile    = "journal"
	journalContext = "snoopy-persist/journal/v4"

	journalKindEpoch = 1
	journalKindDone  = 2
	journalKindCkpt  = 3

	// journalCompactEvery bounds file growth: once no epoch is in flight and
	// this many records accumulated, the file is atomically rewritten to one
	// checkpoint record — the one create + rename the journal ever does,
	// once in 64 epochs. Public: a function of the epoch schedule.
	journalCompactEvery = 128
)

// JournalPlane is one load-balancer plane's stage-A output and its
// client→reply routing table.
type JournalPlane struct {
	// OK reports whether stage A succeeded for the plane (Batch non-nil).
	OK bool
	// PerSub is the plane's Theorem-3 per-partition batch size α.
	PerSub int
	// Batch holds the α·S batch rows in partition-major order (partition s
	// owns rows [s·α, (s+1)·α)); nil when !OK.
	Batch *store.Requests
	// Dropped are the plane's Theorem-3 overflow victim keys.
	Dropped []uint64
	// Reqs is the plane's request snapshot (row j belongs to queue position
	// j; Seq = Client = j, which Begin checks). Only its Op and Key columns
	// are journaled: a decoded snapshot has Seq and Client rebuilt and no
	// value blocks (Data is nil), which MatchResponses never reads.
	Reqs *store.Requests
	// IDs[j] is the reply ID of queue position j (0 = no idempotent
	// tracking asked for; len = Reqs.Len()).
	IDs []uint64
	// Denied, when non-nil, is the per-request ACL denial mask.
	Denied []uint8
}

// JournalEpoch is one journaled epoch: everything a standby root needs to
// re-issue the epoch and route the replies.
type JournalEpoch struct {
	Epoch     uint64
	BlockSize int
	// ACLOK is false when the epoch's ACL resolution failed (stage C would
	// have failed every request; replay parks nothing).
	ACLOK bool
	// Partitions is S, the partition count the batches are laid out for.
	Partitions int
	Planes     []JournalPlane
}

// Release returns the epoch's decoded batch storage to the arena. Call it
// after replay.
func (e *JournalEpoch) Release() {
	for i := range e.Planes {
		arena.Default.PutRequests(e.Planes[i].Batch)
		e.Planes[i].Batch = nil
	}
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
// epochs in ascending order — the epochs a standby root must replay. The
// caller owns the returned epochs' storage (JournalEpoch.Release). rec,
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
	defer func() {
		if err != nil {
			releaseAll(pending)
			pending = nil
		}
	}()
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
				pending[i].Release()
				pending = slices.Delete(pending, i, i+1)
			}
		default:
			return false, errCorrupt("journal: unknown record kind %d", kind)
		}
		first = false
		return true, nil
	})
	if err != nil {
		return pending, err
	}
	// Every acknowledged epoch in (base, ctr] must be present: a journal
	// that ends before the counter was rolled back.
	if base > ctr || reached != ctr {
		return pending, fmt.Errorf("%w (journal reaches epoch %d: %s; counter at %d)", ErrRollback, reached, why, ctr)
	}
	j.last = ctr
	for _, je := range pending {
		j.open = append(j.open, je.Epoch)
	}
	return pending, nil
}

func releaseAll(es []*JournalEpoch) {
	for _, e := range es {
		e.Release()
	}
}

// --- epoch payload codec -------------------------------------------------
//
// Fixed little-endian layout; every length below is a function of the
// public shape (L, S, α, R_i) only:
//
//	u64 epoch | u32 L | u32 S | u32 blockSize | u8 aclOK
//	per plane: u8 ok | u32 perSub | u32 rows + [rows > 0: wirecode frame]
//	           | u32 nDrop + nDrop×u64
//	           | u32 n | n×u8 op | n×u64 key | n×u64 id | u8 hasDenied + [n]u8

const (
	journalHeaderLen = 8 + 3*4 + 1
	journalPlaneLen  = 1 + 4 + 4 + 4 + 4 + 1 // without the batch frame, victims, rows and mask
	journalRowLen    = 1 + 8 + 8             // op, key, id
)

// JournalRecordLen is the exact number of bytes the journal grows by when an
// epoch is journaled: L planes that each built an α·S-row batch, planeReqs[i]
// requests in plane i — plus 8 bytes per Theorem-3 overflow victim (public,
// negligible probability) and a byte per request under an ACL (public
// configuration).
func JournalRecordLen(L, S, alpha int, planeReqs []int, blockSize int) int {
	n := journalHeaderLen + L*(journalPlaneLen+wirecode.FrameLen(alpha*S, blockSize))
	for _, r := range planeReqs {
		n += r * journalRowLen
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
	u8(e.ACLOK)
	for i := range e.Planes {
		p := &e.Planes[i]
		if n := p.Reqs.Len(); len(p.IDs) != n || (p.Denied != nil && len(p.Denied) != n) {
			return nil, fmt.Errorf("persist: journal epoch %d plane %d: %d reply IDs and a %d-row ACL mask for %d requests",
				e.Epoch, i, len(p.IDs), len(p.Denied), n)
		}
		for j := range p.IDs {
			if p.Reqs.Seq[j] != uint64(j) || p.Reqs.Client[j] != uint64(j) {
				return nil, fmt.Errorf("persist: journal epoch %d plane %d row %d: Seq %d, Client %d are not the row index",
					e.Epoch, i, j, p.Reqs.Seq[j], p.Reqs.Client[j])
			}
		}
		u8(p.OK)
		b = le.AppendUint32(b, uint32(p.PerSub))
		if p.OK && p.Batch != nil {
			b = le.AppendUint32(b, uint32(p.Batch.Len()))
			b = wirecode.AppendRequests(b, p.Batch)
		} else {
			b = le.AppendUint32(b, 0)
		}
		b = le.AppendUint32(b, uint32(len(p.Dropped)))
		keys(p.Dropped)
		b = le.AppendUint32(b, uint32(p.Reqs.Len()))
		b = append(b, p.Reqs.Op...)
		keys(p.Reqs.Key)
		keys(p.IDs)
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

func (c *journalCursor) bool() bool {
	raw := c.take(1)
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

// maxJournalDim bounds the decoded shape fields so a corrupted payload
// cannot force huge allocations before the cross-checks below run.
const maxJournalDim = 1 << 20

func decodeJournalEpoch(pt []byte) (e *JournalEpoch, err error) {
	c := &journalCursor{b: pt}
	epoch := c.keys(1)
	L, S, blockSize := c.u32(), c.u32(), c.u32()
	aclOK := c.bool()
	if c.err != nil {
		return nil, c.err
	}
	if L > maxJournalDim || S > maxJournalDim || blockSize <= 0 || blockSize > maxRecord {
		return nil, errCorrupt("journal: epoch %d shape (%d,%d,%d) out of range", epoch[0], L, S, blockSize)
	}
	e = &JournalEpoch{
		Epoch:      epoch[0],
		BlockSize:  blockSize,
		ACLOK:      aclOK,
		Partitions: S,
		Planes:     make([]JournalPlane, L),
	}
	defer func() {
		if err == nil {
			err = c.err
		}
		if err != nil {
			e.Release()
			e = nil
		}
	}()
	for i := range e.Planes {
		p := &e.Planes[i]
		p.OK = c.bool()
		p.PerSub = c.u32()
		if rows := c.u32(); rows > maxJournalDim {
			return e, errCorrupt("journal: epoch %d plane %d batch of %d rows", e.Epoch, i, rows)
		} else if rows > 0 {
			p.Batch, err = wirecode.DecodeRequests(c.take(wirecode.FrameLen(rows, blockSize)), nil)
			if err != nil {
				return e, errCorrupt("journal: epoch %d plane %d batch: %v", e.Epoch, i, err)
			}
		}
		p.Dropped = c.keys(c.u32())
		n := c.u32()
		if c.err != nil || n > len(c.b)/journalRowLen {
			return e, errCorrupt("journal: epoch %d plane %d: %d requests in %d bytes", e.Epoch, i, n, len(c.b))
		}
		p.Reqs = &store.Requests{
			BlockSize: blockSize,
			Op:        append([]uint8(nil), c.take(n)...),
			Key:       c.keys(n),
			Sub:       make([]uint32, n),
			Tag:       make([]uint8, n),
			Aux:       make([]uint8, n),
			Seq:       make([]uint64, n),
			Client:    make([]uint64, n),
		}
		for j := range n {
			p.Reqs.Seq[j], p.Reqs.Client[j] = uint64(j), uint64(j)
		}
		p.IDs = c.keys(n)
		if c.bool() {
			p.Denied = append([]uint8(nil), c.take(n)...)
		}
	}
	if c.err == nil && len(c.b) != 0 {
		return e, errCorrupt("journal: epoch %d payload has %d trailing bytes", e.Epoch, len(c.b))
	}
	return e, nil
}
