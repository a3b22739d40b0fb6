package hostfs

import (
	"io"
	"os"
	"slices"
	"sync"
)

// Mem is host memory as a file system: the enclave-external RAM a sealed
// in-memory partition lives in. Files are byte slices, Sync and SyncDir have
// nothing to make durable, and directories are only name prefixes. It is safe
// for concurrent use; I/O to one file is serialized.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMem returns an empty memory file system.
func NewMem() *Mem { return &Mem{files: map[string]*memFile{}} }

type memFile struct {
	mu   sync.Mutex
	data []byte
}

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

func (m *Mem) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	switch {
	case f == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case f == nil:
		f = &memFile{}
		m.files[name] = f
	case flag&os.O_TRUNC != 0:
		f.Truncate(0)
	}
	return f, nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[oldpath]
	if f == nil {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *Mem) MkdirAll(string) error { return nil }

func (m *Mem) SyncDir(string) error { return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		f.resize(end)
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(size)
	return nil
}

// resize sets the length, zero-filling any growth. Caller holds mu.
func (f *memFile) resize(n int64) {
	old := int64(len(f.data))
	if n <= old {
		f.data = f.data[:n]
		return
	}
	f.data = slices.Grow(f.data, int(n-old))[:n]
	clear(f.data[old:])
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error { return nil }
