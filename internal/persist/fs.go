package persist

import (
	"io"
	"os"
	"time"

	"snoopy/internal/telemetry"
)

// fsys is the seam between the sealed files and the host file system.
// Production is osFS; the crash-point tests substitute a file system that
// fails, tears or forgets individual operations (crash_test.go).
type fsys interface {
	OpenFile(name string, flag int) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the directory's entries (creations, renames, removals)
	// durable.
	SyncDir(path string) error
}

// file is an open state file. All I/O is positional: the sealed files keep
// their own offsets, so nothing depends on a descriptor's cursor.
type file interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	// Sync makes the file's data, and the metadata needed to read it back
	// (its length), durable: fdatasync where the platform has it.
	Sync() error
	Close() error
}

type osFS struct{}

type osFile struct{ *os.File }

func (osFS) OpenFile(name string, flag int) (file, error) {
	f, err := os.OpenFile(name, flag, 0o600)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (f osFile) Sync() error { return datasync(f.File) }

// ioMeter counts one sealed file's writes and syncs under a fixed public
// label (log ∈ {wal, journal, counter, snapshot}), so "syncs per epoch" is
// readable from /metrics. Payloads are byte counts and durations of
// fixed-shape I/O.
type ioMeter struct {
	tel   *telemetry.Registry
	syncs *telemetry.Counter
	bytes *telemetry.Counter
	lat   *telemetry.Histogram
}

func newIOMeter(reg *telemetry.Registry, label string) ioMeter {
	l := `{log="` + label + `"}`
	return ioMeter{
		tel:   reg,
		syncs: reg.Counter("persist_syncs_total" + l),
		bytes: reg.Counter("persist_bytes_written_total" + l),
		lat:   reg.Histogram("persist_sync_seconds"+l, nil),
	}
}

// write writes b at off and counts it.
func (m *ioMeter) write(f file, b []byte, off int64) error {
	if _, err := f.WriteAt(b, off); err != nil {
		return err
	}
	m.bytes.Add(uint64(len(b)))
	return nil
}

// sync makes f durable and records how long that took.
func (m *ioMeter) sync(f file) error {
	t0 := m.tel.Now()
	err := f.Sync()
	m.lat.Observe(time.Duration(m.tel.Now() - t0))
	m.syncs.Inc()
	return err
}
