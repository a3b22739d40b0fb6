// Package persist gives subORAM partitions and the root load balancer
// sealed, crash-recoverable durability: the enclave-external persistent
// state the paper's deployment model assumes (§2 "Data integrity", §7 sealed
// paging, §9 "seal the batch, bump a trusted monotonic counter, then
// answer"), stored by the untrusted host but unable to be read, tampered
// with, or rolled back without detection. DESIGN.md §8 is the full account.
//
// Two mechanisms carry every durable epoch:
//
//	the sealed log (sealedlog.go) — an append-only stream of AEAD-sealed,
//	            length-framed, consecutively numbered records: the partition
//	            write-ahead log, the disk-resident partition's redo log, the
//	            root's epoch journal and the snapshot file. One reader, one
//	            rule: the first record that fails authentication or is not
//	            last+1 ends the log.
//	epoch.ctr — the trusted monotonic epoch counter: two sealed parity slots
//	            overwritten in place. It decides what a log's end means:
//	            records past it are the crash tail of an epoch nobody was
//	            answered for; a log that ends before it was rolled back
//	            (ErrRollback, in the enclave.ErrIntegrity class).
//
// An epoch is log append + sync, then counter write + sync, then the answer:
// two syncs per process, no file created or renamed. seal.key stands in for
// the hardware sealing key (in SGX, derived from MRENCLAVE; the host cannot
// use it); everything is AES-GCM sealed under it with fresh random nonces.
//
// Obliviousness of the persistence path itself: every file operation's
// offset and length depend only on public parameters — partition size,
// block size, batch row count, epoch count. A WAL record carries every
// batch row (reads re-keyed into the dummy space branch-free), so the host cannot infer the read/write mix or which
// objects a batch touched from the I/O shape. internal/trace records the
// (offset, length) stream and the obliviousness tests assert it is
// bit-identical across request streams that differ only in contents.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/hostfs"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// ErrRollback is returned when recovery detects that the host presented
// stale-but-validly-sealed state: the sealed files authenticate, but they do
// not reach the epoch the trusted counter requires. It wraps
// enclave.ErrIntegrity, so errors.Is(err, enclave.ErrIntegrity) holds.
var ErrRollback = fmt.Errorf("%w: state rolled back behind the trusted epoch counter", enclave.ErrIntegrity)

// errCorrupt wraps a decode failure into the enclave.ErrIntegrity class.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", enclave.ErrIntegrity, fmt.Sprintf(format, args...))
}

// File names inside a partition directory.
const (
	sealKeyFile  = "seal.key"
	counterFile  = "epoch.ctr"
	snapshotFile = "snapshot"
	walFile      = "wal"
	routeKeyFile = "route.key"
)

// maxRecord bounds a single sealed record (64 MiB), so a corrupted length
// prefix cannot force an unbounded allocation.
const maxRecord = 64 << 20

// dir is the sealed-file substrate of one state directory: it seals and
// traces every read and write, through the file-system seam.
type dir struct {
	fs     hostfs.FS
	path   string
	key    crypt.Key
	sealer *crypt.RandomSealer
	rec    *trace.Recorder     // host-visible I/O trace hook (tests)
	tel    *telemetry.Registry // I/O counters; nil records nothing
}

// openDir opens (creating it if needed) a state directory. A nil key loads
// or creates seal.key, which models the hardware sealing-key derivation: a
// real enclave would re-derive the key from its measurement, never storing
// it where the host can read it. A nil fs is the host's.
func openDir(fs hostfs.FS, path string, key *crypt.Key, rec *trace.Recorder, tel *telemetry.Registry) (*dir, error) {
	if fs == nil {
		fs = hostfs.OS
	}
	if err := fs.MkdirAll(path); err != nil {
		return nil, err
	}
	d := &dir{fs: fs, path: path, rec: rec, tel: tel}
	var k crypt.Key
	if key != nil {
		k = *key
	} else {
		raw, err := d.readFile(sealKeyFile)
		switch {
		case err == nil && len(raw) != crypt.KeySize:
			return nil, errCorrupt("sealing key file has %d bytes, want %d", len(raw), crypt.KeySize)
		case err == nil:
			copy(k[:], raw)
		case errors.Is(err, os.ErrNotExist):
			if k, err = crypt.NewKey(); err != nil {
				return nil, err
			}
			if err := d.writeFileAtomic(sealKeyFile, k[:]); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
	}
	sealer, err := crypt.NewRandomSealer(k)
	if err != nil {
		return nil, err
	}
	d.key, d.sealer = k, sealer
	return d, nil
}

func (d *dir) file(name string) string { return filepath.Join(d.path, name) }

// state is what every durable structure here stands on: a state directory,
// its trusted counter, and the one sealed log the counter guards.
type state struct {
	d   *dir
	ctr *FileCounter
	log *sealedLog // nil once closed
}

func openState(fs hostfs.FS, path string, key *crypt.Key, rec *trace.Recorder, tel *telemetry.Registry,
	logName, context, label string) (s state, counterExisted bool, err error) {
	if s.d, err = openDir(fs, path, key, rec, tel); err != nil {
		return s, false, err
	}
	if s.ctr, counterExisted, err = openCounter(s.d); err != nil {
		return s, false, err
	}
	if s.log, err = s.d.openLog(logName, context, label, true); err != nil {
		s.ctr.close()
	}
	return s, counterExisted, err
}

// requireFresh vets a directory that holds no state image (no snapshot, no
// segment registry): legitimate only for a partition that never completed an
// Init — the counter must still be at zero and the log empty.
func (s *state) requireFresh(counterExisted bool, image string) error {
	if epoch := s.ctr.Current(); counterExisted && epoch != 0 {
		return fmt.Errorf("%w (no %s, counter at epoch %d)", ErrRollback, image, epoch)
	}
	if size, err := s.log.f.Size(); err != nil || size != 0 {
		return errCorrupt("write-ahead log present without a %s", image)
	}
	return nil
}

// ready reports why no further epoch can be made durable, if none can.
func (s *state) ready() error {
	switch {
	case s.log == nil:
		return errors.New("persist: closed")
	case s.ctr.Err() != nil:
		return fmt.Errorf("persist: epoch counter lost durability: %w", s.ctr.Err())
	case s.log.err != nil:
		return fmt.Errorf("persist: sealed log lost durability: %w", s.log.err)
	}
	return nil
}

// ack bumps the trusted counter: the logged epoch is now acknowledged.
func (s *state) ack() error {
	s.ctr.Increment()
	return s.ready()
}

// close releases the file handles; closing twice is harmless.
func (s *state) close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.close()
	s.log = nil
	return errors.Join(err, s.ctr.close())
}

// readFile returns a whole file, bounded by the record limit. os.ErrNotExist
// passes through.
func (d *dir) readFile(name string) ([]byte, error) {
	return hostfs.ReadFile(d.fs, d.file(name), maxRecord)
}

// writeFileAtomic replaces a whole file, crash-atomically. It is the set-up
// and compaction path; no steady-state epoch takes it.
func (d *dir) writeFileAtomic(name string, content []byte) error {
	if err := hostfs.WriteFileAtomic(d.fs, d.file(name), content); err != nil {
		return err
	}
	d.rec.Record(trace.KindFileWrite, 0, len(content))
	return nil
}

// sealFile seals plaintext as one whole-file record, nonce||ciphertext||tag
// under AAD context||aadExtra. aadExtra is not stored — the reader
// re-derives it from its own state, so a file moved to a different role or
// epoch fails authentication.
func (d *dir) sealFile(name, context string, aadExtra, plaintext []byte) error {
	return d.writeFileAtomic(name, d.sealer.Seal(plaintext, aad(context, aadExtra)))
}

// openSealedFile reads and opens a file sealFile wrote. os.ErrNotExist
// passes through; anything else the host can cause is in the ErrIntegrity
// class.
func (d *dir) openSealedFile(name, context string, aadExtra []byte, plaintextLen int) ([]byte, error) {
	raw, err := d.readFile(name)
	if err != nil {
		return nil, err
	}
	d.rec.Record(trace.KindFileRead, 0, len(raw))
	if len(raw) != plaintextLen+crypt.Overhead {
		return nil, errCorrupt("%s is %d bytes, want %d", name, len(raw), plaintextLen+crypt.Overhead)
	}
	pt, err := d.sealer.Open(raw, aad(context, aadExtra))
	if err != nil {
		return nil, errCorrupt("%s failed authentication", name)
	}
	return pt, nil
}

func aad(context string, extra []byte) []byte {
	return append([]byte(context), extra...)
}
