// Package hostfs is the seam between the enclave's sealed state and the
// untrusted host that stores it. Everything that crosses it is already
// sealed; the seam only decides where the bytes live:
//
//	OS  — the host file system (durable state, disk-resident partitions);
//	Mem — host memory (the sealed in-memory partition of paper §7: the same
//	      segment store, over a file that never leaves RAM).
//
// A fixed full sequential pass is oblivious whatever the medium, so memory
// versus disk is a choice of file, not a second store. Tests substitute a
// file system that fails, tears or forgets individual operations.
package hostfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"snoopy/internal/enclave"
)

// FS is a host file system: names are paths, all I/O is positional.
type FS interface {
	OpenFile(name string, flag int) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string) error
	// SyncDir makes the directory's entries (creations, renames, removals)
	// durable.
	SyncDir(path string) error
}

// File is an open host file. All I/O is positional: callers keep their own
// offsets, so nothing depends on a descriptor's cursor.
type File interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	// Sync makes the file's data, and the metadata needed to read it back
	// (its length), durable: fdatasync where the platform has it.
	Sync() error
	Close() error
}

// OS is the host file system.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o600)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o700) }

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

// ReadFile returns a whole file of at most limit bytes; a longer one is in
// the enclave.ErrIntegrity class (no sealed record is that long, so a
// corrupted or hostile file cannot force an unbounded allocation).
// os.ErrNotExist passes through.
func ReadFile(fs FS, name string, limit int64) ([]byte, error) {
	f, err := fs.OpenFile(name, os.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := f.Size()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("%w: %s is %d bytes, beyond the %d-byte limit", enclave.ErrIntegrity, filepath.Base(name), n, limit)
	}
	b := make([]byte, n)
	if got, err := f.ReadAt(b, 0); got < len(b) {
		return nil, err
	}
	return b, nil
}

// WriteFileAtomic replaces a whole file via tmp + sync + rename + directory
// sync, so a crash leaves either the old or the new version, never a torn
// one.
func WriteFileAtomic(fs FS, name string, content []byte) error {
	tmp := name + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(name))
}
