// Package segstore is the sealed partition store: a subORAM partition kept
// outside the enclave in fixed-shape, AEAD-sealed segments, with the
// oblivious linear scan streamed over them one segment at a time. Where the
// segments live is a choice of hostfs.FS: host memory (the sealed in-memory
// partition of paper §7) or disk (a partition orders of magnitude larger
// than the node's memory).
//
// The key observation (the external-memory framing of "Oblivious Storage
// with Low I/O Overhead", PAPERS.md) is that Snoopy's subORAM already pays
// for a full linear pass over the partition per batch — and a sequential
// full-segment read/write pass is *naturally* data-independent. Moving the
// partition out of the enclave therefore costs bandwidth, never
// obliviousness: every scan reads and rewrites every segment in fixed order,
// whatever the batch contains.
//
// Layout of a store directory:
//
//	registry           — one sealed record: geometry (block size, segment
//	                     blocks, block count), the store epoch, the owner's
//	                     mark, the data-file generation, and one entry per
//	                     logical segment recording the epoch and the nonce of
//	                     its current seal. Written atomically at each commit.
//	segments-<gen>.dat — the segment slots. Each logical segment owns two
//	                     physical slots (double buffering): a write at epoch
//	                     e lands in slot parity e%2, so the previous epoch's
//	                     slot stays intact until the registry commits — a
//	                     torn in-place write can never destroy acknowledged
//	                     state. Slots are padded to a DirectIO-friendly
//	                     multiple of 4096 bytes.
//
// Each slot is framed as a public prefix {magic, segment index, epoch}
// followed by nonce||ciphertext||tag over the segment's blocks; the AAD
// binds (store context, segment index, epoch), so a slot moved to another
// segment, replayed from an older epoch, or bit-flipped fails closed with a
// typed error in the enclave.ErrIntegrity class — never a panic, never
// silently wrong data.
//
// Freshness: the enclave keeps, per segment, the epoch and the nonce of the
// one seal it accepts (20 bytes of trusted state; every write is a fresh
// sealing, so no two share a nonce), and every batch's scan is bracketed by
// Begin/Commit, which advance the epoch by one. A slot replayed from any
// earlier batch fails the next one as stale, even one whose plaintext is
// identical, and so does any other sealing of the same segment and epoch —
// the zeroed slot Format wrote before a load overwrote it, an earlier data
// generation's, or an aborted epoch's write. Begin discards an aborted
// epoch's entries, so its writes are never read either.
// The registry on the host records the same entries for reopening; its own
// freshness is anchored by the caller (internal/persist's trusted monotonic
// counter) comparing the epoch it marked the registry with against the
// counter at open. A crash between Begin and Commit leaves the previous
// epoch's slots and registry intact: the epoch is lost, never half-applied.
// A reload (Reset, LoadRange, Commit) fills a new data-file generation, which
// the registry commit publishes in place of the old one.
//
// Obliviousness of the store's own I/O: every operation the host observes is
// a full-slot read or write whose (offset, length) is a function of public
// parameters only — partition size, segment geometry, and the (public) epoch
// number. internal/trace records the stream and the trace tests assert it is
// bit-identical across secret-differing workloads.
package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// ErrIntegrity is the class of every segstore integrity failure; it wraps
// enclave.ErrIntegrity so errors.Is(err, enclave.ErrIntegrity) holds for any
// corrupt, truncated, or replayed on-disk state.
var ErrIntegrity = fmt.Errorf("segstore: %w", enclave.ErrIntegrity)

// ErrSegmentRollback is returned when a segment slot authenticates as an
// older epoch than the registry requires, or as a seal of that epoch other
// than the one it names — the host replayed stale sealed state. It is in the
// ErrIntegrity class.
var ErrSegmentRollback = fmt.Errorf("%w: segment rolled back to a stale epoch", ErrIntegrity)

// errCorrupt wraps a decode/authentication failure into the ErrIntegrity
// class.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIntegrity, fmt.Sprintf(format, args...))
}

// slotAlign is the physical slot granularity: slots are padded to a multiple
// of this so segment I/O stays friendly to DirectIO and the device's native
// block size. Public.
const slotAlign = 4096

// slotMagic marks a sealed segment slot's public prefix.
const slotMagic = uint32(0x5347_4d54) // "SGMT"

// slotPrefixLen is the public slot prefix: magic u32 | segment u32 |
// epoch u64. It is stored in the clear (the reader needs the epoch to check
// for rollback before paying for decryption) and bound through the AAD.
const slotPrefixLen = 4 + 4 + 8

// segContext is the AAD context for segment slots.
const segContext = "snoopy-segstore/segment/v1"

// Options configures a Store. BlockSize and SegmentBlocks are public
// parameters; every I/O shape is a function of them and the partition size.
type Options struct {
	// BlockSize is the object value size in bytes.
	BlockSize int
	// SegmentBlocks is the number of blocks per segment (default 512). It
	// sets the streaming-scan buffer size — the only partition-proportional
	// memory a scan needs is ONE segment's plaintext and ciphertext — and
	// the write-back granularity.
	SegmentBlocks int
	// Key is the sealing key (shared with the enclosing persistence
	// directory). Required: segstore never invents keys, so a recovered
	// store opens under the same key that sealed it.
	Key crypt.Key
	// FS is where the segments live; nil means the host file system.
	FS hostfs.FS
	// Rec, when non-nil, records the host-visible segment I/O trace
	// (offset, length of every slot read/write). Test-only; requires
	// single-threaded scans.
	Rec *trace.Recorder
	// Telemetry, when non-nil, records segment read/write bytes and
	// per-scan stage spans. Payloads are public (segment counts, byte
	// counts derived from geometry); nil disables recording.
	Telemetry *telemetry.Registry
}

func (o *Options) fillDefaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 160
	}
	if o.SegmentBlocks <= 0 {
		o.SegmentBlocks = 512
	}
}

// scanBuf is one scan worker's reusable buffer pair: the sealed slot image
// and its decrypted plaintext. Pairs live on a free list so steady-state
// scans allocate nothing.
type scanBuf struct {
	sealed []byte // slotBytes
	plain  []byte // segmentBlocks*blockSize
	aad    []byte // segContext || segment u32 || epoch u64
}

// Store is a sealed partition store.
type Store struct {
	dir    string
	fs     hostfs.FS
	opts   Options
	sealer *crypt.RandomSealer

	mu  sync.Mutex  // guards registry state, formatting, and commit
	reg registry    // entries as written so far; the rest as committed
	f   hostfs.File // segments-<gen>.dat (nil until formatted)
	// committed is the entries of the committed registry, which Begin
	// restores: an epoch that failed before its Commit is forgotten.
	committed []segEntry
	// reset says reg and f are a Reset's new generation, which the next
	// Commit publishes; retired is then the committed generation's data file
	// (nil for a store never formatted), which that Commit removes.
	reset      bool
	retired    hostfs.File
	retiredGen uint64

	// writeEpoch is the epoch subsequent scan write-backs seal at: the
	// committed epoch, or one past it between Begin and Commit. Guarded by
	// mu; the caller serializes Begin and Commit with scans.
	writeEpoch uint64

	// Scan buffer free list. bufMu (not mu) guards it because concurrent
	// scan workers take/return buffers while the store is mid-scan.
	bufMu sync.Mutex
	bufs  []*scanBuf

	// Commit scratch, reused across commits (guarded by mu).
	regPlain  []byte
	regSealed []byte

	// Telemetry instruments, resolved once at construction; all nil (and
	// no-ops) when Options.Telemetry is nil.
	telSegReads   *telemetry.Counter
	telSegWrites  *telemetry.Counter
	telReadBytes  *telemetry.Counter
	telWriteBytes *telemetry.Counter
	telScans      *telemetry.Counter
	telScanSeg    *telemetry.Histogram
	stScan        *telemetry.SpanStage
}

// Open opens (or creates) a store directory. If the directory already holds
// a registry, the store comes back formatted with its persisted geometry —
// Options.BlockSize/SegmentBlocks must then match. A fresh directory yields
// an unformatted store; call Format before use.
func Open(dir string, opts Options) (*Store, error) {
	opts.fillDefaults()
	fs := opts.FS
	if fs == nil {
		fs = hostfs.OS
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	sealer, err := crypt.NewRandomSealer(opts.Key)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		fs:     fs,
		opts:   opts,
		sealer: sealer,

		telSegReads:   opts.Telemetry.Counter("segstore_segment_reads_total"),
		telSegWrites:  opts.Telemetry.Counter("segstore_segment_writes_total"),
		telReadBytes:  opts.Telemetry.Counter("segstore_read_bytes_total"),
		telWriteBytes: opts.Telemetry.Counter("segstore_write_bytes_total"),
		telScans:      opts.Telemetry.Counter("segstore_scans_total"),
		telScanSeg:    opts.Telemetry.Histogram("segstore_segment_rw", nil),
		stScan:        opts.Telemetry.Stage("segstore_scan"),
	}
	reg, err := s.readRegistry()
	switch {
	case err == nil:
		if int(reg.blockSize) != opts.BlockSize {
			return nil, fmt.Errorf("segstore: store sealed with block size %d, configured %d", reg.blockSize, opts.BlockSize)
		}
		if int(reg.segmentBlocks) != opts.SegmentBlocks {
			return nil, fmt.Errorf("segstore: store sealed with %d blocks/segment, configured %d", reg.segmentBlocks, opts.SegmentBlocks)
		}
		s.reg, s.committed = reg, slices.Clone(reg.entries)
		s.writeEpoch = reg.storeEpoch
		if err := s.openData(reg.gen); err != nil {
			return nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		// Unformatted: legitimate only for a store that never completed a
		// Format. A data file without a registry is a torn create; remove it
		// so Format starts clean.
	default:
		return nil, err
	}
	return s, nil
}

// Formatted reports whether the store has geometry (a registry on disk).
func (s *Store) Formatted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f != nil
}

// Format sizes a fresh (or re-sizes an existing) store for n blocks, writing
// zeroed sealed segments at the committed epoch (0 for a fresh store) and
// committing the registry: a Reset, a zeroed load and a Commit.
func (s *Store) Format(n int) error {
	if err := s.Reset(n); err != nil {
		return err
	}
	s.mu.Lock()
	reg, f, epoch := s.reg, s.f, s.writeEpoch
	s.mu.Unlock()
	buf := s.newScanBuf(reg)
	for seg := range reg.entries {
		e, err := s.writeSlot(f, reg, seg, epoch, buf.plain, buf)
		if err != nil {
			return err
		}
		s.setEntry(seg, e)
	}
	return s.Commit()
}

// Reset starts a new data-file generation sized for n blocks, at the
// committed epoch, for LoadRange to fill; the next Commit publishes it in
// place of the committed generation and removes that one. Until then a
// reopen finds the committed generation, so a crash part-way through a
// reload loses nothing. Every block must be loaded before that Commit.
func (s *Store) Reset(n int) error {
	if n < 0 {
		return fmt.Errorf("segstore: negative block count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, gen := s.reg.storeEpoch, s.reg.gen+1
	segs := (n + s.opts.SegmentBlocks - 1) / s.opts.SegmentBlocks
	reg := registry{
		blockSize:     uint32(s.opts.BlockSize),
		segmentBlocks: uint32(s.opts.SegmentBlocks),
		numBlocks:     uint64(n),
		storeEpoch:    epoch,
		mark:          s.reg.mark,
		gen:           gen,
		entries:       make([]segEntry, segs),
	}
	f, err := s.fs.OpenFile(s.dataPath(gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	// The file is sized for both parity slots now (sparsely): openData
	// requires the full length, and a store loaded at an even epoch and
	// reopened before its first odd-epoch scan would otherwise read as
	// truncated.
	if err := f.Truncate(int64(segs) * 2 * int64(s.slotBytesFor(reg))); err != nil {
		f.Close()
		return err
	}
	if s.reset { // an earlier Reset that was never committed
		s.f.Close()
		s.fs.Remove(s.dataPath(s.reg.gen))
	} else {
		s.retired, s.retiredGen = s.f, s.reg.gen
	}
	s.f, s.reg, s.writeEpoch, s.reset = f, reg, epoch, true
	// Geometry changed: drop stale-sized scan buffers.
	s.bufMu.Lock()
	s.bufs = nil
	s.bufMu.Unlock()
	return nil
}

func (s *Store) dataPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("segments-%d.dat", gen))
}

func (s *Store) openData(gen uint64) error {
	f, err := s.fs.OpenFile(s.dataPath(gen), os.O_RDWR)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return errCorrupt("registry names data file generation %d, which is missing", gen)
		}
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if want := int64(len(s.reg.entries)) * 2 * int64(s.slotBytesFor(s.reg)); size < want {
		f.Close()
		return errCorrupt("data file truncated: %d bytes, want at least %d", size, want)
	}
	s.f = f
	return nil
}

// ---- Geometry (all public) ----

// NumBlocks returns the partition size in blocks (0 when unformatted).
func (s *Store) NumBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.reg.numBlocks)
}

// BlockSize returns the object value size in bytes.
func (s *Store) BlockSize() int { return s.opts.BlockSize }

// NumSegments returns the number of logical segments.
func (s *Store) NumSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reg.entries)
}

// ScanAlign returns the block alignment scans must honor: worker ranges
// split on segment boundaries so each segment is streamed exactly once.
func (s *Store) ScanAlign() int { return s.opts.SegmentBlocks }

// Epoch returns the committed store epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.storeEpoch
}

// Generation returns the data-file generation: the committed one, or a
// Reset's until the Commit that publishes it.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.gen
}

// Mark returns the owner's mark: the committed one, or the one SetMark set
// since. internal/persist marks the registry with the partition epoch the
// store's contents hold.
func (s *Store) Mark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.mark
}

// SetMark sets the owner's mark the next Commit records.
func (s *Store) SetMark(e uint64) {
	s.mu.Lock()
	s.reg.mark = e
	s.mu.Unlock()
}

// ---- Slot geometry ----

// physSlot maps (logical segment, epoch) to the physical slot index: each
// segment owns slots 2*seg and 2*seg+1, alternating by epoch parity so the
// previous epoch's image survives until the next commit.
func physSlot(seg int, epoch uint64) uint64 {
	return uint64(2*seg) + (epoch & 1)
}

// slotBytesFor returns the fixed physical slot size for a registry's
// geometry: public prefix + sealed payload, rounded up to slotAlign.
func (s *Store) slotBytesFor(reg registry) int {
	raw := slotPrefixLen + int(reg.segmentBlocks)*int(reg.blockSize) + crypt.Overhead
	return (raw + slotAlign - 1) / slotAlign * slotAlign
}

// segPlainBytes is one segment's plaintext size.
func (s *Store) segPlainBytes(reg registry) int {
	return int(reg.segmentBlocks) * int(reg.blockSize)
}

func (s *Store) newScanBuf(reg registry) *scanBuf {
	return &scanBuf{
		sealed: make([]byte, s.slotBytesFor(reg)),
		plain:  make([]byte, s.segPlainBytes(reg)),
		aad:    make([]byte, len(segContext)+12),
	}
}

// takeScanBuf pops a buffer pair off the free list, growing it as needed.
func (s *Store) takeScanBuf() *scanBuf {
	s.bufMu.Lock()
	if n := len(s.bufs); n > 0 {
		b := s.bufs[n-1]
		s.bufs[n-1] = nil
		s.bufs = s.bufs[:n-1]
		s.bufMu.Unlock()
		return b
	}
	s.bufMu.Unlock()
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	return s.newScanBuf(reg)
}

func (s *Store) returnScanBuf(b *scanBuf) {
	s.bufMu.Lock()
	s.bufs = append(s.bufs, b)
	s.bufMu.Unlock()
}

// slotAAD fills b.aad with segContext || segment u32 || epoch u64.
func slotAAD(b *scanBuf, seg int, epoch uint64) []byte {
	n := copy(b.aad, segContext)
	binary.LittleEndian.PutUint32(b.aad[n:n+4], uint32(seg))
	binary.LittleEndian.PutUint64(b.aad[n+4:n+12], epoch)
	return b.aad[:n+12]
}

// readSlot reads and opens segment seg's seal `want` into b.plain. The
// slot's public prefix is checked before decryption: a prefix carrying an
// older epoch is reported as ErrSegmentRollback, everything else that fails
// authentication as corruption. A slot that authenticates but under another
// nonce is another of the enclave's own sealings of the segment at that
// epoch — a superseded one the host kept — and is a rollback too. Callers
// hold no lock; the data file supports concurrent ReadAt.
func (s *Store) readSlot(f hostfs.File, reg registry, seg int, want segEntry, b *scanBuf) error {
	slotBytes, epoch := len(b.sealed), want.epoch
	off := int64(physSlot(seg, epoch)) * int64(slotBytes)
	if _, err := f.ReadAt(b.sealed, off); err != nil {
		return errCorrupt("segment %d slot read at %d: %v", seg, off, err)
	}
	s.opts.Rec.Record(trace.KindSegRead, int(off), slotBytes)
	s.telSegReads.Inc()
	s.telReadBytes.Add(uint64(slotBytes))
	if got := binary.LittleEndian.Uint32(b.sealed[0:4]); got != slotMagic {
		return errCorrupt("segment %d slot has bad magic %#x", seg, got)
	}
	if got := binary.LittleEndian.Uint32(b.sealed[4:8]); got != uint32(seg) {
		return errCorrupt("segment %d slot carries segment index %d", seg, got)
	}
	gotEpoch := binary.LittleEndian.Uint64(b.sealed[8:16])
	if gotEpoch != epoch {
		if gotEpoch < epoch {
			return fmt.Errorf("%w (segment %d at epoch %d, registry requires %d)", ErrSegmentRollback, seg, gotEpoch, epoch)
		}
		return errCorrupt("segment %d slot from future epoch %d (registry at %d)", seg, gotEpoch, epoch)
	}
	ct := b.sealed[slotPrefixLen : slotPrefixLen+s.segPlainBytes(reg)+crypt.Overhead]
	if _, err := s.sealer.OpenAppend(b.plain[:0], ct, slotAAD(b, seg, epoch)); err != nil {
		return errCorrupt("segment %d authentication failed at epoch %d", seg, epoch)
	}
	if [crypt.NonceSize]byte(ct) != want.nonce {
		return fmt.Errorf("%w (segment %d holds a superseded seal of epoch %d)", ErrSegmentRollback, seg, epoch)
	}
	return nil
}

// writeSlot seals plain as segment seg at the given epoch, writes the full
// slot and returns the entry naming this seal. The caller syncs (Commit)
// before the epoch is acknowledged.
func (s *Store) writeSlot(f hostfs.File, reg registry, seg int, epoch uint64, plain []byte, b *scanBuf) (segEntry, error) {
	slotBytes := len(b.sealed)
	binary.LittleEndian.PutUint32(b.sealed[0:4], slotMagic)
	binary.LittleEndian.PutUint32(b.sealed[4:8], uint32(seg))
	binary.LittleEndian.PutUint64(b.sealed[8:16], epoch)
	ct := s.sealer.SealAppend(b.sealed[slotPrefixLen:slotPrefixLen], plain, slotAAD(b, seg, epoch))
	// Zero the alignment tail so slot contents are a pure function of the
	// sealed payload.
	clear(b.sealed[slotPrefixLen+len(ct):])
	off := int64(physSlot(seg, epoch)) * int64(slotBytes)
	if _, err := f.WriteAt(b.sealed, off); err != nil {
		return segEntry{}, err
	}
	s.opts.Rec.Record(trace.KindSegWrite, int(off), slotBytes)
	s.telSegWrites.Inc()
	s.telWriteBytes.Add(uint64(slotBytes))
	return segEntry{epoch: epoch, nonce: [crypt.NonceSize]byte(ct)}, nil
}

// ---- Epoch bracket ----

// Begin opens the next epoch: subsequent Scan write-backs seal at the
// committed epoch plus one, into each segment's other parity slot, while the
// committed epoch's slots stay intact for crash recovery. The subORAM calls
// it, and Commit, around every batch's scan. Writes since the last Commit —
// an epoch that failed part-way — are discarded: the new epoch reads the
// committed seals, and the discarded ones are refused from then on.
func (s *Store) Begin() {
	s.mu.Lock()
	copy(s.reg.entries, s.committed)
	s.writeEpoch = s.reg.storeEpoch + 1
	s.mu.Unlock()
}

// Commit makes the current epoch's slots durable and atomically publishes
// the registry recording them (and a Reset's generation, retiring the
// previous one). After Commit returns, every segment authenticates at the
// committed epoch.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("segstore: commit on unformatted store")
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	next := s.reg
	next.storeEpoch = s.writeEpoch
	if err := s.commitRegistryLocked(next); err != nil {
		return err
	}
	s.reg.storeEpoch = s.writeEpoch
	s.committed = append(s.committed[:0], s.reg.entries...)
	if s.reset {
		if s.retired != nil {
			s.retired.Close()
			s.fs.Remove(s.dataPath(s.retiredGen))
		}
		s.reset, s.retired = false, nil
	}
	return nil
}

// A scan callback visits one run of blocks during a streaming pass: a
// segment's plaintext, i the global index of its first block and blks its
// blocks back to back, mutable in place. Every visited block is resealed and
// written back whether or not fn changed it. The runs are the segments, a
// function of the public geometry. The parameter type is spelled literally
// so suboram's BlockStore interface is satisfied without importing this
// package's types.

// Scan streams the oblivious pass over blocks [lo, hi): for each segment,
// read the sealed slot, open it into a pooled buffer, apply fn to its
// blocks, reseal at the write epoch, and write the slot back. lo and hi must
// be segment-aligned (hi may equal NumBlocks). Concurrent Scans over
// disjoint ranges are safe; each takes its own buffer pair from the free
// list. The I/O sequence is a function of (lo, hi, geometry, epoch) only.
func (s *Store) Scan(lo, hi int, fn func(i int, blks []byte)) error {
	return s.stream(lo, hi, fn, true)
}

// Verify streams a read-only authentication pass over blocks [lo, hi),
// optionally applying fn to each segment's run of blocks (fn mutations are
// NOT written back): the export path, and recovery's check that fails closed
// on any corrupt or rolled-back segment before serving. Its I/O is a scan's
// read half.
func (s *Store) Verify(lo, hi int, fn func(i int, blks []byte)) error {
	return s.stream(lo, hi, fn, false)
}

// stream is Scan (write) and Verify (!write).
func (s *Store) stream(lo, hi int, fn func(i int, blks []byte), write bool) error {
	s.mu.Lock()
	reg, epoch, f := s.reg, s.writeEpoch, s.f
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("segstore: pass over an unformatted store")
	}
	segBlocks, n := int(reg.segmentBlocks), int(reg.numBlocks)
	if lo < 0 || hi > n || lo > hi || lo%segBlocks != 0 || (hi%segBlocks != 0 && hi != n) {
		return fmt.Errorf("segstore: range [%d,%d) is not a run of %d-block segments of [0,%d)", lo, hi, segBlocks, n)
	}
	b := s.takeScanBuf()
	defer s.returnScanBuf(b)
	blockSize := int(reg.blockSize)
	t0 := s.opts.Telemetry.Now()
	for seg := lo / segBlocks; seg*segBlocks < hi; seg++ {
		ts0 := s.opts.Telemetry.Now()
		// Read the segment's current seal (registry entry), write back at
		// the scan's write epoch: during a batch these differ by one and the
		// write lands in the sibling parity slot.
		if err := s.readSlot(f, reg, seg, s.entry(seg), b); err != nil {
			return err
		}
		if base := seg * segBlocks; fn != nil {
			fn(base, b.plain[:(min(base+segBlocks, n)-base)*blockSize])
		}
		if !write {
			continue
		}
		e, err := s.writeSlot(f, reg, seg, epoch, b.plain, b)
		if err != nil {
			return err
		}
		s.setEntry(seg, e)
		s.telScanSeg.Observe(time.Duration(s.opts.Telemetry.Now() - ts0))
	}
	if write {
		s.telScans.Inc()
		s.stScan.Record(epoch, lo/segBlocks, (hi-lo+segBlocks-1)/segBlocks, t0, s.opts.Telemetry.Now())
	}
	return nil
}

// entry returns segment seg's registry entry: the seal reads must find.
func (s *Store) entry(seg int) segEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.entries[seg]
}

// setEntry updates segment seg's registry entry (in memory; Commit
// publishes it).
func (s *Store) setEntry(seg int, e segEntry) {
	s.mu.Lock()
	s.reg.entries[seg] = e
	s.mu.Unlock()
}

// ---- Bulk load ----

// LoadRange bulk-writes blocks [start, start+len(data)/BlockSize) from
// packed data, streaming whole segments: unaligned edges read-modify-write
// their segment, segments it covers (up to the partition's end) are sealed
// directly from data. Slots are written at the current write epoch; call
// Commit afterwards.
func (s *Store) LoadRange(start int, data []byte) error {
	s.mu.Lock()
	reg := s.reg
	epoch := s.writeEpoch
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("segstore: load on unformatted store")
	}
	blockSize := int(reg.blockSize)
	if len(data)%blockSize != 0 {
		return fmt.Errorf("segstore: load data length %d not a multiple of block size %d", len(data), blockSize)
	}
	count := len(data) / blockSize
	if start < 0 || start+count > int(reg.numBlocks) {
		return fmt.Errorf("segstore: load range [%d,%d) outside [0,%d)", start, start+count, reg.numBlocks)
	}
	segBlocks := int(reg.segmentBlocks)
	n := int(reg.numBlocks)
	b := s.takeScanBuf()
	defer s.returnScanBuf(b)
	for seg := start / segBlocks; seg*segBlocks < start+count; seg++ {
		base := seg * segBlocks
		limit := min(base+segBlocks, n)
		full := start <= base && limit <= start+count
		if !full {
			// Partial segment: merge over the existing contents.
			if err := s.readSlot(f, reg, seg, s.entry(seg), b); err != nil {
				return err
			}
		} else {
			clear(b.plain)
		}
		for i := max(base, start); i < min(limit, start+count); i++ {
			copy(b.plain[(i-base)*blockSize:(i-base+1)*blockSize],
				data[(i-start)*blockSize:(i-start+1)*blockSize])
		}
		e, err := s.writeSlot(f, reg, seg, epoch, b.plain, b)
		if err != nil {
			return err
		}
		s.setEntry(seg, e)
	}
	return nil
}

// Close releases the data file handle. Committed state remains recoverable;
// Close is not required for durability.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if s.retired != nil {
		s.retired.Close()
	}
	s.f, s.retired = nil, nil
	return err
}
