package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/ohash"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// Partition is the in-process subORAM interface Durable wraps, satisfied by
// *suboram.SubORAM. Deliver applies a delivery whole or not at all and
// must not modify its input: the batches are being sealed into the log while
// it runs. Restore adopts a trusted image without Init's validation — data
// nil: the values already in the store the partition scans.
type Partition interface {
	Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error)
	Export() (ids []uint64, data []byte, err error)
	Restore(ids []uint64, data []byte) error
}

// Config tunes a Durable. The zero value works: the memory placement, every
// other field defaulted.
type Config struct {
	// BlockSize is the object value size in bytes (default 160). Must match
	// the wrapped partition.
	BlockSize int
	// SegmentBlocks is the image's segment size in blocks (default 512), a
	// public parameter fixed for the directory's life: the unit of image I/O
	// and the disk placement's streaming scan buffer.
	SegmentBlocks int
	// Disk selects the disk placement: the partition's values live in the
	// image, which its own scan commits every epoch. Otherwise (memory) every
	// delivery is logged to the wal while the partition scans, and the image
	// is rewritten from the partition every SnapshotEvery (default 64) epochs.
	Disk          bool
	SnapshotEvery int
	// Key overrides the sealing key. When nil, the key is loaded from (or
	// created at) seal.key in the partition directory — the simulation's
	// stand-in for the hardware sealing-key derivation.
	Key *crypt.Key
	// Rec, when non-nil, records the host-visible I/O trace (offset,
	// length of every file read/write) for the obliviousness tests.
	Rec *trace.Recorder
	// Telemetry, when non-nil, records sync latency, sync and byte counts
	// per sealed file, epoch and checkpoint counters and (through the image)
	// segment I/O: fixed recordings per delivery, no request contents.
	Telemetry *telemetry.Registry

	fs hostfs.FS // nil: the host file system (crash-point tests substitute one)
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 160
	}
	if c.SegmentBlocks <= 0 {
		c.SegmentBlocks = 512
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
}

// The image is a segment store in imageDir, and its sealed identifier set in
// the file named by (and AAD-bound to) the store's data-file generation: one
// registry commit publishes both.
const (
	imageDir   = "segments"
	idsContext = "snoopy-persist/ids/v3"
)

func idsFile(gen uint64) string { return fmt.Sprintf("ids-%d", gen) }

// Durable wraps a partition with sealed, crash-recoverable durability, behind
// the partition's own Init/Deliver surface. An epoch is one delivery, on
// disk — sealed, bound to the trusted epoch counter — before Deliver
// returns. The state is an image, a segment store marked with the partition
// epoch it holds, plus the memory placement's wal of the deliveries since.
// The placement decides only when the image is written; recovery is one rule
// for both (recover).
type Durable struct {
	cfg   Config
	inner Partition
	state // the directory, the trusted counter and (memory placement) the wal
	image *segstore.Store

	mu        sync.Mutex
	walEpochs int // complete epochs in the wal since the image
	recovered bool
	replayed  int // wal epochs recovery applied to the image (observability)

	// The log writer: one goroutine that appends and syncs the record
	// Deliver sealed while the partition scans. walGo hands it a record,
	// walDone returns the outcome; Close stops it.
	walGo   chan struct{}
	walDone chan error

	// Telemetry instruments; all nil (no-ops) when Config.Telemetry is nil.
	telWALEpochs   *telemetry.Counter
	telCheckpoints *telemetry.Counter
}

// NewDurable opens (or creates) the partition directory and wraps the
// partition build returns. build is called once, before recovery, with the
// store the partition must scan: the image itself in the disk placement, nil
// in the memory placement.
//
// When the directory holds state, it is recovered into the partition — a
// process killed at any point resumes at its last acknowledged delivery, or
// one past it. Sealed-state tampering and rollback surface here as
// enclave.ErrIntegrity / ErrRollback errors.
func NewDurable(path string, cfg Config, build func(scan suboram.BlockStore) Partition) (*Durable, error) {
	cfg.fillDefaults()
	logName := walFile
	if cfg.Disk {
		logName = ""
	}
	st, err := openState(cfg.fs, path, cfg.Key, cfg.Rec, cfg.Telemetry, logName, walContext, "wal")
	if err != nil {
		return nil, err
	}
	image, err := segstore.Open(filepath.Join(path, imageDir), segstore.Options{
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
	var scan suboram.BlockStore
	if cfg.Disk {
		scan = image
	}
	dur := &Durable{
		cfg: cfg, inner: build(scan), state: st, image: image,
		walGo: make(chan struct{}), walDone: make(chan error),
		telWALEpochs:   cfg.Telemetry.Counter("persist_wal_epochs_total"),
		telCheckpoints: cfg.Telemetry.Counter("persist_checkpoints_total"),
	}
	if err := dur.recover(); err != nil {
		dur.Close()
		return nil, err
	}
	cfg.Telemetry.Counter("persist_recovered_epochs_total").Add(uint64(dur.replayed))
	if dur.log != nil {
		go func() {
			for range dur.walGo {
				dur.walDone <- dur.log.write(true)
			}
		}()
	}
	return dur, nil
}

// Client is an in-process partition as a root drives it
// (core.SubORAMClient), as a Failover hook receives it (snoopy.SubORAM),
// and its size.
type Client interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
	Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error)
	NumObjects() int
}

// NewPartition builds one in-process partition in its placement: in memory,
// sealed over host memory if asked; or, with a directory, durable
// (NewDurable), its values in memory or, with disk, in the image on disk.
// Its error is the one check of the placement rule: disk needs a directory
// and excludes sealed. recovered reports whether the directory held state,
// now restored (no Init needed); closer releases the directory.
func NewPartition(blockSize, workers int, sealed bool, dir string, disk bool, tel *telemetry.Registry) (p Client, recovered bool, closer func() error, err error) {
	if disk && dir == "" {
		return nil, false, nil, errors.New("persist: a disk-resident partition needs a data directory")
	}
	if disk && sealed {
		return nil, false, nil, errors.New("persist: a disk-resident partition cannot also be sealed")
	}
	cfg := Config{BlockSize: blockSize, Disk: disk, Telemetry: tel}
	cfg.fillDefaults()
	build := func(scan suboram.BlockStore) *suboram.SubORAM {
		return suboram.New(suboram.Config{BlockSize: cfg.BlockSize, Workers: workers, Sealed: sealed, Store: scan, Telemetry: tel})
	}
	if dir == "" {
		return build(nil), false, func() error { return nil }, nil
	}
	dur, err := NewDurable(dir, cfg, func(scan suboram.BlockStore) Partition { return build(scan) })
	if err != nil {
		return nil, false, nil, err
	}
	return dur, dur.recovered, dur.Close, nil
}

// recover is the one recovery rule. (1) Open the image at the epoch e it is
// marked with, the counter at E: e ≤ E+1, and at E+1 the image's commit
// outran the counter's bump, which happens now. (2) Apply the wal's records
// in (e, E]; a log that does not reach E was rolled back. (3) Drop every
// record past E: an unanswered epoch's. (4) Hand the image to the partition.
// Every segment is authenticated first, in one pass that also reads the
// memory placement's values out.
func (dur *Durable) recover() error {
	if !dur.image.Formatted() {
		// Legitimate only before the first Init, whose image precedes every
		// epoch (and cuts whatever a host put in the wal).
		if epoch := dur.ctr.Current(); epoch != 0 {
			return fmt.Errorf("%w (no image, counter at epoch %d)", ErrRollback, epoch)
		}
		return nil
	}
	e, epoch := dur.image.Mark(), dur.ctr.Current()
	if e > epoch+1 {
		return errCorrupt("image at epoch %d, past the trusted counter's %d", e, epoch)
	}
	ids, err := dur.readIDs()
	if err != nil {
		return err
	}
	bs := dur.cfg.BlockSize
	var data []byte
	var take func(i int, blks []byte)
	if !dur.cfg.Disk {
		data = make([]byte, len(ids)*bs)
		take = func(i int, blks []byte) { copy(data[i*bs:], blks) }
	}
	if err := dur.image.Verify(0, len(ids), take); err != nil {
		return err
	}
	if e == epoch+1 {
		if err := dur.ack(); err != nil {
			return err
		}
		epoch++
	}
	applied, why := e, "no wal"
	if dur.log != nil {
		index := make(map[uint64]int, len(ids))
		for i, id := range ids {
			index[id] = i
		}
		// Records at or before e predate the image (a crash before the log's
		// cut leaves them); records past the counter end the log.
		why, err = dur.log.replay(func(seq uint64, _ uint8, rows []byte) (bool, error) {
			if seq > epoch || (applied == e && seq > e+1) {
				return false, nil
			}
			if seq <= e {
				return true, nil
			}
			applied = seq
			return true, forEachWrite(rows, bs, func(key uint64, value []byte) {
				// Writes to unknown keys are no-ops (matching batch semantics).
				if i, ok := index[key]; ok {
					copy(data[i*bs:(i+1)*bs], value)
				}
			})
		})
		if err != nil {
			return err
		}
	}
	if applied != epoch {
		return fmt.Errorf("%w (image at epoch %d, wal reaches epoch %d: %s; counter at %d)", ErrRollback, e, applied, why, epoch)
	}
	if err := dur.inner.Restore(ids, data); err != nil {
		return err
	}
	dur.walEpochs = int(epoch - e)
	dur.replayed = dur.walEpochs
	dur.recovered = true
	return nil
}

// readIDs opens the image's identifier set: the file of the committed
// generation, sized by its block count.
func (dur *Durable) readIDs() ([]uint64, error) {
	gen, n := dur.image.Generation(), dur.image.NumBlocks()
	pt, err := dur.d.openSealedFile(idsFile(gen), idsContext, genAAD(gen), 8*n)
	if errors.Is(err, os.ErrNotExist) {
		err = errCorrupt("the image's identifier set %s is missing", idsFile(gen))
	}
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(pt[i*8:])
	}
	return ids, nil
}

func genAAD(gen uint64) []byte { return binary.LittleEndian.AppendUint64(nil, gen) }

// Recovered reports whether the directory held state that was restored into
// the wrapped partition.
func (dur *Durable) Recovered() bool { return dur.recovered }

// Replayed reports how many logged epochs recovery applied on top of the
// image (0 for a fresh directory, and always in the disk placement).
func (dur *Durable) Replayed() int { return dur.replayed }

// NumObjects returns the partition size: the image's block count.
func (dur *Durable) NumObjects() int { return dur.image.NumBlocks() }

// Epoch returns the trusted counter: the number of acknowledged deliveries.
func (dur *Durable) Epoch() uint64 { return dur.ctr.Current() }

// Init loads the partition: it writes the image whole, which the partition
// then adopts. A crash anywhere in Init reopens at the image before it or
// the one after, so Init over live state is crash-atomic.
func (dur *Durable) Init(ids []uint64, data []byte) error {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if len(data) != len(ids)*dur.cfg.BlockSize {
		return fmt.Errorf("persist: data length %d != %d objects × %d bytes", len(data), len(ids), dur.cfg.BlockSize)
	}
	if err := store.CheckIDs(ids); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := dur.writeImage(ids, data, true); err != nil {
		return err
	}
	if dur.cfg.Disk {
		data = nil // the values are in the image, which the partition scans
	}
	return dur.inner.Restore(ids, data)
}

// BatchAccess applies one batch as a delivery of its own (Deliver).
func (dur *Durable) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	outs, err := dur.deliver(store.DeliveryTag{}, []*store.Requests{reqs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Deliver applies one delivery — an epoch's batches, in order — and
// makes it durable as one epoch before answering: one image commit (disk),
// or one wal record synced while the partition scans (memory), then one
// counter bump. A delivery the gate (ohash.CheckDelivery) refuses writes
// nothing; any failure after it leaves the Durable refusing deliveries until
// reopened at the delivery's start. The returned slice is valid until the
// next call. The tag is handed to the partition; the epoch counted here is
// the Durable's own.
func (dur *Durable) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	dur.mu.Lock()
	defer dur.mu.Unlock()
	return dur.deliver(tag, reqs)
}

// deliver is Deliver; the caller holds mu while it reads the scratch.
func (dur *Durable) deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	if err := ohash.CheckDelivery(dur.cfg.BlockSize, reqs); err != nil {
		return nil, err
	}
	if !dur.image.Formatted() {
		return nil, errors.New("persist: a delivery needs an initialized partition")
	}
	if err := dur.ready(); err != nil {
		return nil, err
	}
	epoch := dur.ctr.Current() + 1
	var outs []*store.Requests
	var err error
	if dur.cfg.Disk {
		before := dur.image.Epoch()
		dur.image.SetMark(epoch)
		outs, err = dur.inner.Deliver(tag, reqs)
		if got := dur.image.Epoch(); err == nil && got != before+1 {
			err = fmt.Errorf("persist: the delivery left the image at store epoch %d, want %d", got, before+1)
		}
	} else {
		if dur.walEpochs >= dur.cfg.SnapshotEvery {
			// Before the delivery, never after: the image holds no
			// unacknowledged epoch.
			ids, data, err := dur.inner.Export()
			if err == nil {
				err = dur.writeImage(ids, data, false)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := sealWAL(dur.log, epoch, reqs, dur.cfg.BlockSize); err != nil {
			return nil, err
		}
		dur.walGo <- struct{}{}
		// Let the writer reach its fdatasync before the scan takes the CPU:
		// on a single P it would otherwise first run when the scan is over.
		runtime.Gosched()
		outs, err = dur.inner.Deliver(tag, reqs)
		if werr := <-dur.walDone; werr != nil {
			return nil, werr // sticky in the log: the scans' effects are not durable
		}
	}
	if err != nil {
		dur.broken = err
		return nil, err
	}
	if err := dur.ack(); err != nil {
		return nil, err
	}
	if !dur.cfg.Disk {
		dur.telWALEpochs.Inc() // once per acknowledged delivery: no request contents
		dur.walEpochs++
	}
	return outs, nil
}

// writeImage writes the image at the current epoch and drops the log it
// supersedes: Init's (fresh) as a new data-file generation with a new
// identifier set, a checkpoint's into the other parity slots — never over the
// committed image, which a crash before the commit finds intact. A failure
// leaves the image's in-process state unknown, so it is sticky. Caller holds
// mu.
func (dur *Durable) writeImage(ids []uint64, data []byte, fresh bool) error {
	if err := dur.ready(); err != nil {
		return err
	}
	epoch, img, retired := dur.ctr.Current(), dur.image, dur.image.Generation()
	var err error
	if fresh {
		pt := make([]byte, 0, 8*len(ids))
		for _, id := range ids {
			pt = binary.LittleEndian.AppendUint64(pt, id)
		}
		if err = img.Reset(len(ids)); err == nil {
			gen := img.Generation()
			err = dur.d.sealFile(idsFile(gen), idsContext, genAAD(gen), pt)
		}
	} else {
		img.Begin()
	}
	if err == nil {
		err = img.LoadRange(0, data)
	}
	if err == nil {
		img.SetMark(epoch)
		err = img.Commit()
	}
	if err != nil {
		dur.broken = err
		return err
	}
	if fresh && retired != 0 { // superseded; a crash may keep it, unread
		dur.d.fs.Remove(dur.d.file(idsFile(retired)))
	}
	if dur.log != nil {
		if err := dur.log.cut(epoch + 1); err != nil {
			return err
		}
	}
	dur.telCheckpoints.Inc()
	dur.walEpochs = 0
	return nil
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
	return errors.Join(dur.close(), dur.image.Close())
}
