package persist

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// Partition is the in-process subORAM interface Durable wraps. It is
// satisfied by *suboram.SubORAM. BatchAccess must not modify its input: the
// batch is being sealed into the log while it runs.
type Partition interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
	Export() (ids []uint64, data []byte, err error)
}

// restorer is the fast-path state-import hook: partitions that implement it
// load recovered state without re-running Init's validation (the snapshot
// was authenticated and was written by this same enclave).
type restorer interface {
	Restore(ids []uint64, data []byte) error
}

// restoreInto imports a trusted image into p, by Restore where it has one.
func restoreInto(p Partition, ids []uint64, data []byte) error {
	if r, ok := p.(restorer); ok {
		return r.Restore(ids, data)
	}
	return p.Init(ids, data)
}

// Config tunes a Durable wrapper. The zero value works: every field has a
// default.
type Config struct {
	// BlockSize is the partition's object value size in bytes (default 160,
	// matching snoopy.Config). Must match the wrapped partition.
	BlockSize int
	// ChunkBlocks is the number of objects per sealed snapshot chunk
	// (default 256). Chunk size — a public parameter — trades sealing
	// overhead against write granularity.
	ChunkBlocks int
	// WALRows is the row granularity of a sealed WAL record (default 512):
	// a batch is logged as one record padded to a multiple of it. Record
	// size is public; row contents are not.
	WALRows int
	// SnapshotEvery bounds the epochs between snapshots (default 64):
	// recovery replays at most SnapshotEvery WAL epochs.
	SnapshotEvery int
	// Key overrides the sealing key. When nil, the key is loaded from (or
	// created at) seal.key in the partition directory — the simulation's
	// stand-in for the hardware sealing-key derivation.
	Key *crypt.Key
	// Rec, when non-nil, records the host-visible I/O trace (offset,
	// length of every file read/write) for the obliviousness tests.
	Rec *trace.Recorder
	// Telemetry, when non-nil, records sync latency, sync and byte counts
	// per sealed file, and epoch/snapshot counters: a fixed number of
	// recordings per batch / snapshot, no request-dependent payloads.
	Telemetry *telemetry.Registry

	fs hostfs.FS // nil: the host file system (crash-point tests substitute one)
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 160
	}
	if c.ChunkBlocks <= 0 {
		c.ChunkBlocks = 256
	}
	if c.WALRows <= 0 {
		c.WALRows = 512
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
}

// Durable wraps a partition with sealed, crash-recoverable durability. It
// implements the same Init/BatchAccess surface as the partition itself
// (core.SubORAMClient), so it drops into a deployment wherever a plain
// subORAM does. Every acknowledged batch is on disk — sealed, bound to the
// trusted epoch counter — before BatchAccess returns.
type Durable struct {
	cfg   Config
	inner Partition
	state // the directory, the trusted counter and the write-ahead log

	mu        sync.Mutex
	walEpochs int // complete epochs in the WAL since the last snapshot
	recovered bool
	replayed  int // WAL epochs replayed during recovery (observability)

	// The log writer: one goroutine that appends and syncs the record
	// BatchAccess sealed while BatchAccess scans. walGo hands it a record,
	// walDone returns the outcome; Close stops it.
	walGo   chan struct{}
	walDone chan error

	// Telemetry instruments; all nil (no-ops) when Config.Telemetry is nil.
	telWALEpochs *telemetry.Counter
	telSnapshots *telemetry.Counter
}

// NewDurable opens (or creates) the partition directory and wraps inner.
// When the directory holds state, it is recovered into inner: the snapshot
// is loaded, the WAL replayed up to the trusted counter, and any
// unacknowledged tail discarded — so a process killed at any point resumes
// exactly at its last acknowledged batch. Sealed-state tampering and
// rollback surface here as enclave.ErrIntegrity / ErrRollback errors.
func NewDurable(path string, inner Partition, cfg Config) (*Durable, error) {
	cfg.fillDefaults()
	st, counterExisted, err := openState(cfg.fs, path, cfg.Key, cfg.Rec, cfg.Telemetry, walFile, walContext, "wal")
	if err != nil {
		return nil, err
	}
	dur := &Durable{
		cfg: cfg, inner: inner, state: st,
		walGo: make(chan struct{}), walDone: make(chan error),
		telWALEpochs: cfg.Telemetry.Counter("persist_wal_epochs_total"),
		telSnapshots: cfg.Telemetry.Counter("persist_snapshots_total"),
	}
	if err := dur.recover(counterExisted); err != nil {
		dur.close()
		return nil, err
	}
	cfg.Telemetry.Counter("persist_recovered_epochs_total").Add(uint64(dur.replayed))
	go func() {
		for range dur.walGo {
			dur.walDone <- dur.log.write(true)
		}
	}()
	return dur, nil
}

// recover loads the snapshot and replays the log up to the trusted counter.
func (dur *Durable) recover(counterExisted bool) error {
	cfg, epoch := dur.cfg, dur.ctr.Current()
	snapEpoch, ids, data, blockSize, err := dur.d.readSnapshot()
	if errors.Is(err, os.ErrNotExist) {
		return dur.requireFresh(counterExisted, "snapshot")
	}
	if err != nil {
		return err
	}
	if blockSize != cfg.BlockSize {
		return fmt.Errorf("persist: partition sealed with block size %d, configured %d", blockSize, cfg.BlockSize)
	}
	if snapEpoch > epoch {
		return fmt.Errorf("%w (snapshot at epoch %d, counter at %d)", ErrRollback, snapEpoch, epoch)
	}
	// Records at or before the snapshot epoch predate it (a crash between
	// the snapshot's rename and the log reset leaves them) and are skipped;
	// records past the counter are an unacknowledged batch's and end the log.
	index := make(map[uint64]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	applied := snapEpoch
	why, err := dur.log.replay(func(seq uint64, _ uint8, rows []byte) (bool, error) {
		if seq > epoch || (applied == snapEpoch && seq > snapEpoch+1) {
			return false, nil
		}
		if seq <= snapEpoch {
			return true, nil
		}
		applied = seq
		return true, forEachWrite(rows, cfg.BlockSize, func(key uint64, value []byte) {
			// Writes to unknown keys are no-ops (matching batch semantics).
			if i, ok := index[key]; ok {
				copy(data[i*cfg.BlockSize:(i+1)*cfg.BlockSize], value)
			}
		})
	})
	if err != nil {
		return err
	}
	if applied != epoch {
		return fmt.Errorf("%w (wal reaches epoch %d: %s; counter at %d)", ErrRollback, applied, why, epoch)
	}
	if err := restoreInto(dur.inner, ids, data); err != nil {
		return err
	}
	dur.walEpochs = int(epoch - snapEpoch)
	dur.replayed = dur.walEpochs
	dur.recovered = true
	return nil
}

// Recovered reports whether the directory held state that was restored into
// the wrapped partition.
func (dur *Durable) Recovered() bool { return dur.recovered }

// ReplayedEpochs reports how many sealed WAL epochs recovery replayed on
// top of the snapshot when the directory was opened (0 for a fresh one).
func (dur *Durable) ReplayedEpochs() int { return dur.replayed }

// Epoch returns the trusted counter: the number of acknowledged batches.
func (dur *Durable) Epoch() uint64 { return dur.ctr.Current() }

// Init loads the partition and seals the full image as the new snapshot.
func (dur *Durable) Init(ids []uint64, data []byte) error {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if err := dur.inner.Init(ids, data); err != nil {
		return err
	}
	return dur.snapshotLocked(ids, data)
}

// BatchAccess applies one batch and makes it durable before returning: the
// batch is sealed into the WAL, the trusted counter advances, and only then
// is the response released. The partition's scan changes nothing on disk and
// the log record is a function of the request batch alone, so the record is
// written and synced *while* the partition scans; the counter is bumped once
// both are done. Every SnapshotEvery epochs the pre-batch state is first
// compacted into a fresh snapshot and the WAL reset, bounding recovery.
func (dur *Durable) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if reqs.BlockSize != dur.cfg.BlockSize {
		return nil, fmt.Errorf("persist: batch block size %d != %d", reqs.BlockSize, dur.cfg.BlockSize)
	}
	if err := dur.ready(); err != nil {
		return nil, err
	}
	if dur.walEpochs >= dur.cfg.SnapshotEvery {
		// Snapshot the pre-batch state (all acknowledged epochs). Doing it
		// before the batch — never after — means a crash between the
		// snapshot rename and the WAL reset leaves only redundant log
		// records, not an unacknowledged state image.
		ids, data, err := dur.inner.Export()
		if err != nil {
			return nil, err
		}
		if err := dur.snapshotLocked(ids, data); err != nil {
			return nil, err
		}
	}
	epoch := dur.ctr.Current() + 1
	before := dur.log.off
	if err := sealWAL(dur.log, epoch, reqs, dur.cfg.WALRows, dur.cfg.BlockSize); err != nil {
		return nil, err
	}
	dur.walGo <- struct{}{}
	// Let the writer reach its fdatasync before the scan takes the CPU: on
	// a single P it would otherwise first run when the scan is over.
	runtime.Gosched()
	out, err := dur.inner.BatchAccess(reqs)
	if werr := <-dur.walDone; werr != nil {
		return nil, werr
	}
	if err != nil {
		// The record describes a batch that was not applied and will not be
		// acknowledged; the next batch takes its place and its epoch.
		if cerr := dur.log.cut(before, epoch); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	// Once per acknowledged batch. WAL records are fixed-shape (padded to
	// WALRows), so the counter carries no request contents.
	dur.telWALEpochs.Inc()
	if err := dur.ack(); err != nil {
		return nil, err
	}
	dur.walEpochs++
	return out, nil
}

// snapshotLocked seals the given image at the current epoch and resets the
// WAL. Caller holds mu.
func (dur *Durable) snapshotLocked(ids []uint64, data []byte) error {
	if err := dur.ready(); err != nil {
		return err
	}
	epoch := dur.ctr.Current()
	if err := dur.d.writeSnapshot(epoch, ids, data, dur.cfg.BlockSize, dur.cfg.ChunkBlocks); err != nil {
		return err
	}
	if err := dur.log.cut(0, epoch+1); err != nil {
		return err
	}
	dur.telSnapshots.Inc()
	dur.walEpochs = 0
	return nil
}

// Export passes through to the wrapped partition, so a Durable composes
// anywhere a Partition does (replication, engine migration).
func (dur *Durable) Export() (ids []uint64, data []byte, err error) {
	return dur.inner.Export()
}

// Restore imports a trusted state image — the receiving side of a §9
// replica resynchronization: the image came sealed from a fresh peer's
// enclave, so it skips Init's validation where the partition supports
// that, and it is immediately sealed as the new on-disk snapshot (WAL
// reset) so the rejoin itself is crash-consistent.
func (dur *Durable) Restore(ids []uint64, data []byte) error {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if err := restoreInto(dur.inner, ids, data); err != nil {
		return err
	}
	return dur.snapshotLocked(ids, data)
}

// Close stops the log writer and releases the file handles. State already
// acknowledged remains recoverable; Close is not required for durability
// (kill -9 is the normal shutdown model this package is built for).
func (dur *Durable) Close() error {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if dur.log != nil {
		close(dur.walGo)
	}
	return dur.close()
}
