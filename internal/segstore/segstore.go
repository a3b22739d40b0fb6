// Package segstore is the disk-resident sealed partition store: it lets one
// subORAM node serve a partition orders of magnitude larger than its memory
// by keeping the blocks on disk in fixed-shape, AEAD-sealed segments and
// streaming the oblivious linear scan over them.
//
// The key observation (the external-memory framing of "Oblivious Storage
// with Low I/O Overhead", PAPERS.md) is that Snoopy's subORAM already pays
// for a full linear pass over the partition per batch — and a sequential
// full-segment read/write pass is *naturally* data-independent. Moving the
// partition to disk therefore costs bandwidth, never obliviousness: every
// scan reads and rewrites every segment in fixed order, whatever the batch
// contains.
//
// On-disk layout of a store directory:
//
//	registry           — one sealed record: geometry (block size, segment
//	                     blocks, block count), the store epoch, the data-file
//	                     generation, the ids-file epoch, and one entry per
//	                     logical segment mapping it to a physical slot and
//	                     recording the epoch it was last sealed at. Written
//	                     atomically (tmp + fsync + rename) at each commit.
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
// Freshness: the registry records the epoch every segment must authenticate
// at. The registry itself is untrusted storage; its freshness is anchored by
// the caller (internal/persist's trusted monotonic counter) comparing the
// registry's store epoch against the counter at open. Within a batch, the
// caller brackets the scan with BeginEpoch/Commit; a crash between them
// leaves the previous epoch's slots and registry intact, and the write-ahead
// log (persist) rolls the batch forward.
//
// Obliviousness of the store's own I/O: every operation the host disk
// observes is a full-slot read or write whose (offset, length) is a function
// of public parameters only — partition size, segment geometry, and the
// (public) epoch number. internal/trace records the stream and the trace
// tests assert it is bit-identical across secret-differing workloads.
package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// ErrIntegrity is the class of every segstore integrity failure; it wraps
// enclave.ErrIntegrity so errors.Is(err, enclave.ErrIntegrity) holds for any
// corrupt, truncated, or replayed on-disk state.
var ErrIntegrity = fmt.Errorf("segstore: %w", enclave.ErrIntegrity)

// ErrSegmentRollback is returned when a segment slot authenticates as an
// older epoch than the registry requires — the host replayed stale sealed
// state. It is in the ErrIntegrity class.
var ErrSegmentRollback = fmt.Errorf("%w: segment rolled back to a stale epoch", ErrIntegrity)

// ErrRegistryRollback is returned by the caller-driven freshness check
// (RequireEpoch) when the whole registry is older than the trusted counter
// allows. It is in the ErrIntegrity class.
var ErrRegistryRollback = fmt.Errorf("%w: registry rolled back behind the trusted epoch", ErrIntegrity)

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

// Store is a disk-resident sealed partition store.
type Store struct {
	dir    string
	opts   Options
	sealer *crypt.RandomSealer

	mu  sync.Mutex // guards registry state, formatting, and commit
	reg registry
	f   *os.File // segments-<gen>.dat (nil until formatted)

	// writeEpoch is the epoch subsequent scan write-backs seal at
	// (BeginEpoch). Guarded by mu; read by scan workers only between
	// BeginEpoch and Commit, which the caller serializes with scans.
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
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	sealer, err := crypt.NewRandomSealer(opts.Key)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
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
		s.reg = reg
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
// zeroed sealed segments at the current write epoch (BeginEpoch) and
// committing the registry. An existing store is replaced under a new
// data-file generation, so a crash mid-Format leaves the previous generation
// fully intact.
func (s *Store) Format(n int) error {
	if n < 0 {
		return fmt.Errorf("segstore: negative block count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.writeEpoch
	gen := uint64(1)
	oldGen := uint64(0)
	if s.f != nil {
		oldGen = s.reg.gen
		gen = s.reg.gen + 1
	}
	segs := (n + s.opts.SegmentBlocks - 1) / s.opts.SegmentBlocks
	reg := registry{
		blockSize:     uint32(s.opts.BlockSize),
		segmentBlocks: uint32(s.opts.SegmentBlocks),
		numBlocks:     uint64(n),
		storeEpoch:    epoch,
		idsEpoch:      epoch,
		gen:           gen,
		entries:       make([]segEntry, segs),
	}
	f, err := os.OpenFile(s.dataPath(gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	// Seal every segment zeroed at the format epoch. Parity slots for the
	// format epoch are written; the sibling slots stay zero until first use,
	// but the file is sized for both now (sparsely): openData requires the
	// full length, and a store formatted at an even epoch and reopened before
	// its first odd-epoch scan would otherwise read as truncated.
	if err := f.Truncate(int64(segs) * 2 * int64(s.slotBytesFor(reg))); err != nil {
		f.Close()
		return err
	}
	buf := s.newScanBuf(reg)
	zero := buf.plain
	clear(zero)
	for seg := 0; seg < segs; seg++ {
		reg.entries[seg] = segEntry{phys: physSlot(seg, epoch), epoch: epoch}
		if err := s.writeSlot(f, reg, seg, epoch, zero, buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	old := s.f
	s.f = f
	s.reg = reg
	s.writeEpoch = epoch
	if err := s.commitRegistryLocked(); err != nil {
		return err
	}
	if old != nil {
		old.Close()
		os.Remove(s.dataPath(oldGen))
	}
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
	f, err := os.OpenFile(s.dataPath(gen), os.O_RDWR, 0o600)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return errCorrupt("registry names data file generation %d, which is missing", gen)
		}
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if want := int64(len(s.reg.entries)) * 2 * int64(s.slotBytesFor(s.reg)); st.Size() < want {
		f.Close()
		return errCorrupt("data file truncated: %d bytes, want at least %d", st.Size(), want)
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

// SegmentBlocks returns the blocks-per-segment geometry — the scan
// alignment and the streaming buffer size in blocks.
func (s *Store) SegmentBlocks() int { return s.opts.SegmentBlocks }

// ScanAlign returns the block alignment scans must honor: worker ranges
// split on segment boundaries so each segment is streamed exactly once.
func (s *Store) ScanAlign() int { return s.opts.SegmentBlocks }

// Epoch returns the committed store epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.storeEpoch
}

// IDsEpoch returns the epoch the sealed ids image was last rewritten at —
// the freshness anchor the persistence layer binds into the ids file's AAD.
func (s *Store) IDsEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.idsEpoch
}

// SetIDsEpoch records a fresh ids image epoch; committed with the registry.
func (s *Store) SetIDsEpoch(e uint64) {
	s.mu.Lock()
	s.reg.idsEpoch = e
	s.mu.Unlock()
}

// RequireEpoch anchors the registry's freshness to the caller's trusted
// epoch: the committed store epoch must be at least min (the trusted
// counter) — anything older is replayed stale state — and no more than max
// (counter+1, the single batch that can be in flight across a crash).
func (s *Store) RequireEpoch(min, max uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg.storeEpoch < min {
		return fmt.Errorf("%w (registry at epoch %d, trusted counter at %d)", ErrRegistryRollback, s.reg.storeEpoch, min)
	}
	if s.reg.storeEpoch > max {
		return errCorrupt("registry at epoch %d, beyond the trusted bound %d", s.reg.storeEpoch, max)
	}
	return nil
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

// readSlot reads and opens segment seg at the given epoch into b.plain.
// The slot's public prefix is checked before decryption: a prefix carrying
// an older epoch is reported as ErrSegmentRollback, everything else that
// fails authentication as corruption. Callers hold no lock; the data file
// supports concurrent ReadAt.
func (s *Store) readSlot(f *os.File, reg registry, seg int, epoch uint64, b *scanBuf) error {
	slotBytes := len(b.sealed)
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
	pt, err := s.sealer.OpenAppend(b.plain[:0], ct, slotAAD(b, seg, epoch))
	if err != nil {
		return errCorrupt("segment %d authentication failed at epoch %d", seg, epoch)
	}
	_ = pt // decrypted in place into b.plain
	return nil
}

// writeSlot seals b.plain (or the provided plaintext) as segment seg at the
// given epoch and writes the full slot. The caller fsyncs (Commit) before
// the epoch is acknowledged.
func (s *Store) writeSlot(f *os.File, reg registry, seg int, epoch uint64, plain []byte, b *scanBuf) error {
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
		return err
	}
	s.opts.Rec.Record(trace.KindSegWrite, int(off), slotBytes)
	s.telSegWrites.Inc()
	s.telWriteBytes.Add(uint64(slotBytes))
	return nil
}

// ---- Epoch bracket ----

// BeginEpoch sets the epoch subsequent Scan write-backs seal at. The
// persistence layer calls it after the batch's WAL record is durable and
// before the scan; segments then move to the new epoch slot by slot while
// the previous epoch's slots stay intact for crash recovery.
func (s *Store) BeginEpoch(e uint64) {
	s.mu.Lock()
	s.writeEpoch = e
	s.mu.Unlock()
}

// Commit makes the current epoch's slots durable and atomically publishes
// the registry recording them. After Commit returns, every segment
// authenticates at the committed epoch and recovery needs no roll-forward.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("segstore: commit on unformatted store")
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.reg.storeEpoch = s.writeEpoch
	return s.commitRegistryLocked()
}

// A scan callback visits one block during a streaming pass: i is the global
// block index and blk the block's bytes, mutable in place. Every visited
// block is resealed and written back whether or not fn changed it. The
// parameter type is spelled literally so suboram's BlockStore interface is
// satisfied without importing this package's types.

// Scan streams the oblivious pass over blocks [lo, hi): for each segment,
// read the sealed slot, open it into a pooled buffer, apply fn to every
// block, reseal at the write epoch, and write the slot back. lo and hi must
// be segment-aligned (hi may equal NumBlocks). Concurrent Scans over
// disjoint ranges are safe; each takes its own buffer pair from the free
// list. The I/O sequence is a function of (lo, hi, geometry, epoch) only.
func (s *Store) Scan(lo, hi int, fn func(i int, blk []byte)) error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return fmt.Errorf("segstore: scan on unformatted store")
	}
	reg := s.reg
	epoch := s.writeEpoch
	f := s.f
	s.mu.Unlock()

	segBlocks := int(reg.segmentBlocks)
	n := int(reg.numBlocks)
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("segstore: scan range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	if lo%segBlocks != 0 || (hi%segBlocks != 0 && hi != n) {
		return fmt.Errorf("segstore: scan range [%d,%d) not aligned to %d-block segments", lo, hi, segBlocks)
	}
	b := s.takeScanBuf()
	defer s.returnScanBuf(b)
	blockSize := int(reg.blockSize)
	t0 := s.opts.Telemetry.Now()
	for seg := lo / segBlocks; seg*segBlocks < hi; seg++ {
		ts0 := s.opts.Telemetry.Now()
		// Read at the segment's current epoch (registry entry), write back
		// at the scan's write epoch: during a batch these differ by one and
		// the write lands in the sibling parity slot.
		if err := s.readSlot(f, reg, seg, s.entryEpoch(seg), b); err != nil {
			return err
		}
		base := seg * segBlocks
		limit := minInt(base+segBlocks, n)
		for i := base; i < limit; i++ {
			fn(i, b.plain[(i-base)*blockSize:(i-base+1)*blockSize])
		}
		if err := s.writeSlot(f, reg, seg, epoch, b.plain, b); err != nil {
			return err
		}
		s.setEntry(seg, segEntry{phys: physSlot(seg, epoch), epoch: epoch})
		s.telScanSeg.Observe(time.Duration(s.opts.Telemetry.Now() - ts0))
	}
	s.telScans.Inc()
	s.stScan.Record(epoch, lo/segBlocks, (hi-lo+segBlocks-1)/segBlocks, t0, s.opts.Telemetry.Now())
	return nil
}

// Verify streams a read-only authentication pass over blocks [lo, hi),
// optionally applying fn to each block (fn mutations are NOT written back).
// Used by recovery to fail closed on any corrupt or rolled-back segment
// before serving, with the same fixed sequential I/O shape as a scan's read
// half.
func (s *Store) Verify(lo, hi int, fn func(i int, blk []byte)) error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return fmt.Errorf("segstore: verify on unformatted store")
	}
	reg := s.reg
	f := s.f
	s.mu.Unlock()
	segBlocks := int(reg.segmentBlocks)
	n := int(reg.numBlocks)
	if lo%segBlocks != 0 || (hi%segBlocks != 0 && hi != n) || lo < 0 || hi > n {
		return fmt.Errorf("segstore: verify range [%d,%d) invalid", lo, hi)
	}
	b := s.takeScanBuf()
	defer s.returnScanBuf(b)
	blockSize := int(reg.blockSize)
	for seg := lo / segBlocks; seg*segBlocks < hi; seg++ {
		if err := s.readSlot(f, reg, seg, s.entryEpoch(seg), b); err != nil {
			return err
		}
		if fn != nil {
			base := seg * segBlocks
			limit := minInt(base+segBlocks, n)
			for i := base; i < limit; i++ {
				fn(i, b.plain[(i-base)*blockSize:(i-base+1)*blockSize])
			}
		}
	}
	return nil
}

// Rewrite streams a read-modify-write pass like Scan but applies fn and
// reseals at the write epoch unconditionally over the whole store — the
// recovery roll-forward primitive. Unlike Scan it is always whole-store, so
// a crash-interrupted batch is re-applied with one fixed I/O shape.
func (s *Store) Rewrite(fn func(i int, blk []byte)) error {
	return s.Scan(0, s.NumBlocks(), fn)
}

// entryEpoch returns segment seg's registry epoch.
func (s *Store) entryEpoch(seg int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.entries[seg].epoch
}

// setEntry updates segment seg's registry entry (in memory; Commit
// publishes it).
func (s *Store) setEntry(seg int, e segEntry) {
	s.mu.Lock()
	s.reg.entries[seg] = e
	s.mu.Unlock()
}

// ---- Random access (load, export, recovery — not the batch hot path) ----

// ReadBlock reads block i into dst (len >= BlockSize) by streaming its
// containing segment. Intended for export/tests; the batch path never reads
// single blocks.
func (s *Store) ReadBlock(i int, dst []byte) error {
	s.mu.Lock()
	reg := s.reg
	f := s.f
	s.mu.Unlock()
	if f == nil || i < 0 || i >= int(reg.numBlocks) {
		return fmt.Errorf("segstore: block %d out of range", i)
	}
	segBlocks := int(reg.segmentBlocks)
	seg := i / segBlocks
	b := s.takeScanBuf()
	defer s.returnScanBuf(b)
	if err := s.readSlot(f, reg, seg, s.entryEpoch(seg), b); err != nil {
		return err
	}
	blockSize := int(reg.blockSize)
	copy(dst, b.plain[(i-seg*segBlocks)*blockSize:(i-seg*segBlocks+1)*blockSize])
	return nil
}

// LoadRange bulk-writes blocks [start, start+len(data)/BlockSize) from
// packed data, streaming whole segments: unaligned edges read-modify-write
// their segment, aligned interiors are sealed directly from data. Slots are
// written at the current write epoch; call Commit (or Format's epoch
// discipline) afterwards.
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
		limit := minInt(base+segBlocks, n)
		full := start <= base && base+segBlocks <= start+count
		if !full {
			// Partial segment: merge over the existing contents.
			if err := s.readSlot(f, reg, seg, s.entryEpoch(seg), b); err != nil {
				return err
			}
		} else {
			clear(b.plain)
		}
		for i := maxInt(base, start); i < minInt(limit, start+count); i++ {
			copy(b.plain[(i-base)*blockSize:(i-base+1)*blockSize],
				data[(i-start)*blockSize:(i-start+1)*blockSize])
		}
		if err := s.writeSlot(f, reg, seg, epoch, b.plain, b); err != nil {
			return err
		}
		s.setEntry(seg, segEntry{phys: physSlot(seg, epoch), epoch: epoch})
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
	s.f = nil
	return err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
