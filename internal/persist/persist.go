// Package persist gives subORAM partitions and the root load balancer
// sealed, crash-recoverable durability: the enclave-external persistent
// state the paper's deployment model assumes (§2 "Data integrity", §7 sealed
// paging, §9 "seal the batch, bump a trusted monotonic counter, then
// answer"), stored by the untrusted host but unable to be read, tampered
// with, or rolled back without detection. DESIGN.md §8 is the full account.
//
// Three mechanisms carry every durable epoch:
//
//	the image — a partition's contents as a segment store (internal/segstore)
//	            marked with the partition epoch it holds.
//	the sealed log (sealedlog.go) — an append-only stream of AEAD-sealed,
//	            length-framed, consecutively numbered records: the memory
//	            placement's write-ahead log and the root's epoch journal. One
//	            reader, one rule: the first record that fails authentication
//	            or is not last+1 ends the log.
//	epoch.ctr — the trusted monotonic epoch counter: two sealed parity slots
//	            overwritten in place. State past it is the crash tail of an
//	            epoch nobody was answered for; state that ends before it was
//	            rolled back (ErrRollback, in the enclave.ErrIntegrity class).
//
// An epoch is one delivery (a partition's batches from every load balancer)
// made durable whole: its write (one log record, or one image commit) +
// sync, then one counter write + sync, then the answer. seal.key stands in for the hardware
// sealing key (in SGX, derived from MRENCLAVE); everything is AES-GCM sealed
// under it with fresh random nonces.
//
// Every file operation's offset and length depend only on public parameters
// — partition, block and segment size, batch row count, epoch count. A WAL
// record carries every row of the delivery's batches (reads re-keyed into the dummy space
// branch-free) and every image pass covers every segment, so the host learns
// neither the read/write mix nor which objects a batch touched; the
// internal/trace tests assert the (offset, length) stream is bit-identical
// across request streams that differ only in contents.
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
// its trusted counter, and the sealed log the counter guards, if any.
type state struct {
	d      *dir
	ctr    *FileCounter
	log    *sealedLog // nil for an owner that keeps none, and once closed
	broken error      // sticky: what left the owner's state on disk unknown
	closed bool
}

// openState opens the directory, its counter and, unless logName is empty,
// its log.
func openState(fs hostfs.FS, path string, key *crypt.Key, rec *trace.Recorder, tel *telemetry.Registry,
	logName, context, label string) (s state, err error) {
	if s.d, err = openDir(fs, path, key, rec, tel); err != nil {
		return s, err
	}
	if s.ctr, err = openCounter(s.d); err != nil || logName == "" {
		return s, err
	}
	if s.log, err = s.d.openLog(logName, context, label); err != nil {
		s.ctr.close()
	}
	return s, err
}

// ready reports why no further epoch can be made durable, if none can.
func (s *state) ready() error {
	switch {
	case s.closed:
		return errors.New("persist: closed")
	case s.broken != nil:
		return fmt.Errorf("persist: state on disk lost track: %w", s.broken)
	case s.ctr.Err() != nil:
		return fmt.Errorf("persist: epoch counter lost durability: %w", s.ctr.Err())
	case s.log != nil && s.log.err != nil:
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
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.log != nil {
		err = s.log.close()
		s.log = nil
	}
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
