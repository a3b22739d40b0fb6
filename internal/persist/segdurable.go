package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// SegDurable is the disk-resident counterpart of Durable: it wraps a
// store-backed partition (internal/suboram with a segstore.Store) whose
// block values live on disk, so the segment store itself is the durable
// state image and no separate snapshot file exists. What remains under the
// persistence layer's control:
//
//	seal.key  — the sealing key, shared with the segment store.
//	epoch.ctr — the trusted monotonic counter anchoring freshness.
//	ids       — the sealed object-identifier set (immutable after Init),
//	            AAD-bound to the epoch recorded in the segment registry. It
//	            is written last, so its presence says Init completed.
//	wal       — a sealed log holding the one in-flight batch (see below).
//	segments/ — the segstore directory: sealed registry + slot data.
//
// Logging discipline: Durable writes a batch's log record while the
// memory-resident partition scans — a crash loses the in-memory effects
// anyway. A disk-mutating scan inverts the requirement: once segment slots
// start changing a crash must be able to finish the batch, so SegDurable
// syncs the batch's record BEFORE the scan touches disk (redo logging). The
// scan then writes each segment into the inactive epoch-parity slot, the
// registry commit publishes the new epoch atomically, and the trusted
// counter acknowledges it. A crash at any point leaves
// either (a) the old epoch intact with a logged-but-unapplied batch —
// recovery re-derives the new epoch from old slots + logged rows, an
// idempotent absolute-write replay — or (b) the new epoch committed with the
// counter one behind — recovery verifies and bumps the counter.
//
// Because the log only ever needs the single in-flight batch, it is cut to
// empty at the start of every BatchAccess rather than compacted by
// snapshots; records keep Durable's fixed-shape row format (reads re-keyed
// into dummy space branch-free), so the host learns nothing about the
// batch's read/write mix from either log or segment I/O.
type SegDurable struct {
	cfg   SegConfig
	inner StorePartition
	state // the directory, the trusted counter and the redo log
	ss    *segstore.Store

	mu        sync.Mutex
	recovered bool
	rolledFwd bool // recovery completed a logged-but-uncommitted batch

	telCommits *telemetry.Counter
	telRollFwd *telemetry.Counter
}

// ErrInitIncomplete is returned when a disk-resident partition directory
// holds a segment registry but no sealed identifier set: an Init (or
// Restore) was interrupted. The directory must be wiped and the partition
// initialized again. It is in the ErrIntegrity class.
var ErrInitIncomplete = fmt.Errorf("%w: partition initialization did not complete", enclave.ErrIntegrity)

// StorePartition is the partition surface SegDurable wraps: the usual
// Partition contract plus the adopt-the-store recovery hook (satisfied by
// *suboram.SubORAM configured with a Store).
type StorePartition interface {
	Partition
	RestoreFromStore(ids []uint64) error
}

// SegConfig tunes a SegDurable wrapper. The zero value works.
type SegConfig struct {
	// BlockSize is the object value size in bytes (default 160).
	BlockSize int
	// SegmentBlocks is the segment geometry in blocks (default 512); the
	// streaming scan buffer is one segment. Public parameter.
	SegmentBlocks int
	// Key overrides the sealing key; nil loads/creates seal.key in the
	// partition directory.
	Key *crypt.Key
	// Rec, when non-nil, records the host-visible I/O trace (WAL and
	// segment I/O) for the obliviousness tests.
	Rec *trace.Recorder
	// Telemetry, when non-nil, records sync latency, sync and byte counts
	// per sealed file, commit and roll-forward counters, and (through the
	// segment store) segment read/write bytes and scan spans.
	Telemetry *telemetry.Registry

	fs hostfs.FS // nil: the host file system (crash-point tests substitute one)
}

func (c *SegConfig) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 160
	}
	if c.SegmentBlocks <= 0 {
		c.SegmentBlocks = 512
	}
}

// Segment-store subdirectory and sealed ids file names.
const (
	segStoreDir = "segments"
	segIDsFile  = "ids"
)

// segIDsContext is the AAD context for the sealed identifier set. The AAD
// extra binds the epoch the registry records for the ids image, so a stale
// ids file cannot be paired with a newer store.
const segIDsContext = "snoopy-persist/segids/v2"

// NewSegDurable opens (or creates) a disk-resident partition directory and
// wraps the partition that build constructs over its segment store: the
// partition needs the store at creation time (scan plumbing) while the
// store's key and recovery belong here, so build is called exactly once,
// before any recovery, and must return a partition scanning the given store.
//
// When the directory holds state, it is recovered: the registry and every
// segment are authenticated and checked against the trusted counter (stale
// state fails with ErrRollback / segstore.ErrSegmentRollback), a logged but
// uncommitted batch is rolled forward, and the identifier set is loaded. A
// process killed at any point resumes at — or, for a batch whose redo record
// was already durable, just after — its last acknowledged batch.
func NewSegDurable(path string, build func(ss *segstore.Store) StorePartition, cfg SegConfig) (*SegDurable, error) {
	cfg.fillDefaults()
	st, counterExisted, err := openState(cfg.fs, path, cfg.Key, cfg.Rec, cfg.Telemetry, walFile, walContext, "wal")
	if err != nil {
		return nil, err
	}
	ss, err := segstore.Open(filepath.Join(path, segStoreDir), segstore.Options{
		BlockSize:     cfg.BlockSize,
		SegmentBlocks: cfg.SegmentBlocks,
		Key:           st.d.key,
		FS:            st.d.fs,
		Rec:           cfg.Rec,
		Telemetry:     cfg.Telemetry,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	sd := &SegDurable{
		cfg: cfg, inner: build(ss), state: st, ss: ss,
		telCommits: cfg.Telemetry.Counter("persist_seg_commits_total"),
		telRollFwd: cfg.Telemetry.Counter("persist_seg_rollforward_total"),
	}
	if err := sd.recover(counterExisted); err != nil {
		sd.Close()
		return nil, err
	}
	return sd, nil
}

// recover brings the store, counter, and partition into agreement.
func (sd *SegDurable) recover(counterExisted bool) error {
	epoch := sd.ctr.Current()
	if !sd.ss.Formatted() {
		if _, err := sd.d.readFile(segIDsFile); err == nil {
			return errCorrupt("sealed identifier set present without a segment registry")
		}
		return sd.requireFresh(counterExisted, "segment registry")
	}
	ids, err := sd.readIDs()
	if errors.Is(err, os.ErrNotExist) {
		return ErrInitIncomplete
	}
	if err != nil {
		return err
	}
	// The registry authenticated at open; anchor its freshness. At most one
	// batch can be ahead of the counter (the redo-logged in-flight one).
	if err := sd.ss.RequireEpoch(epoch, epoch+1); err != nil {
		return err
	}
	// The log matters only if its first record is the in-flight batch's:
	// anything else — a previous epoch's applied record, a torn or tampered
	// tail — is discardable, never an integrity violation: the acknowledged
	// state lives in the segment store, verified below.
	var logged []byte
	if _, err := sd.log.replay(func(seq uint64, _ uint8, rows []byte) (bool, error) {
		if seq == epoch+1 {
			logged = append(logged, rows...)
		}
		return false, nil
	}); err != nil {
		return err
	}
	switch storeEpoch := sd.ss.Epoch(); {
	case storeEpoch == epoch+1:
		// Crash between the registry commit and the counter increment: the
		// batch is fully applied and its redo record was durable before any
		// slot changed, so acknowledge it. Authenticate every segment first —
		// the pass also surfaces per-segment rollback.
		if err := sd.ss.Verify(0, sd.ss.NumBlocks(), nil); err != nil {
			return err
		}
		if err := sd.ack(); err != nil {
			return err
		}
		sd.rolledFwd = true
		sd.telRollFwd.Inc()
	case logged != nil:
		// Crash after the redo record became durable but before the registry
		// commit: the previous epoch's slots are intact (the scan writes the
		// other parity slot), so re-derive the new epoch from them plus the
		// logged rows — an idempotent absolute-write replay, streamed with
		// the same fixed whole-store I/O shape as any scan. The replay
		// authenticates every segment as it goes.
		if err := sd.rollForward(ids, logged); err != nil {
			return err
		}
		sd.rolledFwd = true
		sd.telRollFwd.Inc()
	default:
		// Consistent at the counter. Authenticate the full store before
		// serving.
		if err := sd.ss.Verify(0, sd.ss.NumBlocks(), nil); err != nil {
			return err
		}
	}
	if err := sd.inner.RestoreFromStore(ids); err != nil {
		return err
	}
	sd.recovered = true
	return nil
}

// rollForward completes a logged-but-uncommitted batch: rows are the
// fixed-shape log rows of the epoch after the committed one (the one the
// store's Begin opens); write rows are applied as absolute
// values over the previous epoch's slots and the result committed and
// acknowledged. Rows for dummy keys (including re-keyed reads) and unknown
// keys are skipped — matching batch semantics — inside the enclave; the host
// observes only the fixed full-store streaming pass.
func (sd *SegDurable) rollForward(ids []uint64, rows []byte) error {
	index := make(map[uint64]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	pending := make(map[int][]byte)
	if err := forEachWrite(rows, sd.cfg.BlockSize, func(key uint64, value []byte) {
		if i, ok := index[key]; ok {
			pending[i] = value
		}
	}); err != nil {
		return err
	}
	sd.ss.Begin()
	if err := sd.ss.Scan(0, sd.ss.NumBlocks(), func(i int, blk []byte) {
		if v, ok := pending[i]; ok {
			copy(blk, v)
		}
	}); err != nil {
		return err
	}
	if err := sd.ss.Commit(); err != nil {
		return err
	}
	return sd.ack()
}

// readIDs loads the sealed identifier set, authenticated against the epoch
// the segment registry records for it.
func (sd *SegDurable) readIDs() ([]uint64, error) {
	n := sd.ss.NumBlocks()
	pt, err := sd.d.openSealedFile(segIDsFile, segIDsContext, idsAAD(sd.ss.IDsEpoch()), 8*n)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(pt[i*8 : (i+1)*8])
	}
	return ids, nil
}

func idsAAD(epoch uint64) []byte { return binary.LittleEndian.AppendUint64(nil, epoch) }

// Recovered reports whether the directory held state that was restored.
func (sd *SegDurable) Recovered() bool { return sd.recovered }

// RolledForward reports whether recovery completed a batch whose redo
// record was durable but whose commit (or acknowledgment) the crash
// interrupted.
func (sd *SegDurable) RolledForward() bool { return sd.rolledFwd }

// Epoch returns the trusted counter: the number of acknowledged batches.
func (sd *SegDurable) Epoch() uint64 { return sd.ctr.Current() }

// Init loads the partition: the partition formats the store and streams it
// full at the committed epoch — the counter's — then the identifier set is
// sealed beside it.
// Init is not crash-atomic the way a batch is — nothing is acknowledged
// until it returns — but it fails closed: the identifier set is removed
// first and written last, so a directory a crash left mid-Init holds a
// registry without one and reopens with ErrInitIncomplete.
func (sd *SegDurable) Init(ids []uint64, data []byte) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.initLocked(ids, data, false)
}

func (sd *SegDurable) initLocked(ids []uint64, data []byte, restore bool) error {
	if err := sd.ready(); err != nil {
		return err
	}
	epoch := sd.ctr.Current()
	if err := sd.d.fs.Remove(sd.d.file(segIDsFile)); err == nil {
		if err := sd.d.fs.SyncDir(sd.d.path); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var err error
	if restore {
		err = restoreInto(sd.inner, ids, data)
	} else {
		err = sd.inner.Init(ids, data)
	}
	if err != nil {
		return err
	}
	if err := sd.log.cut(0, 0); err != nil {
		return err
	}
	pt := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		pt = binary.LittleEndian.AppendUint64(pt, id)
	}
	return sd.d.sealFile(segIDsFile, segIDsContext, idsAAD(epoch), pt)
}

// BatchAccess applies one batch with redo durability: the batch's sealed
// log record is synced before the scan mutates any slot, the partition's scan
// streams it into the new epoch's parity slots and commits the registry that
// publishes them (the partition brackets its own scan), and the trusted
// counter acknowledges the epoch — only then is the response released.
func (sd *SegDurable) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if reqs.BlockSize != sd.cfg.BlockSize {
		return nil, fmt.Errorf("persist: batch block size %d != %d", reqs.BlockSize, sd.cfg.BlockSize)
	}
	if err := sd.ready(); err != nil {
		return nil, err
	}
	// Drop the previous batch's (already applied) record; the log holds at
	// most the one in-flight batch.
	epoch := sd.ctr.Current() + 1
	if err := sd.log.cut(0, epoch); err != nil {
		return nil, err
	}
	if err := sealWAL(sd.log, epoch, reqs, sd.cfg.BlockSize); err != nil {
		return nil, err
	}
	if err := sd.log.write(true); err != nil {
		return nil, err
	}
	out, err := sd.inner.BatchAccess(reqs)
	if err != nil {
		return nil, err
	}
	if got := sd.ss.Epoch(); got != epoch {
		return nil, fmt.Errorf("persist: batch left the segment store at epoch %d, want %d", got, epoch)
	}
	if err := sd.ack(); err != nil {
		return nil, err
	}
	sd.telCommits.Inc()
	return out, nil
}

// Export passes through to the wrapped partition.
func (sd *SegDurable) Export() (ids []uint64, data []byte, err error) {
	return sd.inner.Export()
}

// Restore imports a trusted state image (replica resynchronization),
// replacing the on-disk partition under the current epoch.
func (sd *SegDurable) Restore(ids []uint64, data []byte) error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.initLocked(ids, data, true)
}

// Close releases the file handles and the segment store's data file.
// Acknowledged state remains recoverable; Close is not required for
// durability (kill -9 is the normal shutdown model).
func (sd *SegDurable) Close() error {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return errors.Join(sd.close(), sd.ss.Close())
}
