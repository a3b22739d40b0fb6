package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"snoopy/internal/hostfs"
)

// crashFS is the hostfs.FS test double: an in-memory file system that
// models what a host does to a process that dies.
//
// Every file has a volatile image (what reads see: the page cache) and a
// durable image (what a power loss leaves), brought together by Sync; the
// namespace likewise is volatile until SyncDir. Every mutating operation —
// create, write, truncate, sync, rename, remove, directory sync — has an
// index. At index failAt the operation fails without effect (or, torn, after
// half its effect) and the file system is dead: every later operation fails
// too, as it would for a dead process. kept then yields what the host still
// has, as a live file system a successor can open.
type crashFS struct {
	mu      sync.Mutex
	names   map[string]*inode // volatile namespace
	dnames  map[string]*inode // durable namespace
	ops     int               // mutating operations so far
	failAt  int               // index of the operation that fails; -1: none
	torn    bool              // the failing operation takes half effect first
	dead    bool
	tornOp  bool   // whether the failing operation could be torn
	onSync  func() // called after every successful Sync / SyncDir
	lastOps []string
}

type inode struct {
	data  []byte // volatile image
	ddata []byte // durable image
}

var errCrash = errors.New("crashfs: injected crash")

func newCrashFS() *crashFS {
	return &crashFS{names: map[string]*inode{}, dnames: map[string]*inode{}, failAt: -1}
}

// tick accounts for one mutating operation. It returns (half, err): err when
// the operation must not happen (dead, or failing clean), half when it must
// happen halfway and then kill the file system.
func (c *crashFS) tick(what string, tearable bool) (half bool, err error) {
	if c.dead {
		return false, errCrash
	}
	i := c.ops
	c.ops++
	c.lastOps = append(c.lastOps, what)
	if i != c.failAt {
		return false, nil
	}
	c.dead = true
	c.tornOp = tearable
	if c.torn && tearable {
		return true, nil
	}
	return false, errCrash
}

func (c *crashFS) OpenFile(name string, flag int) (hostfs.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino := c.names[name]
	if ino == nil {
		if flag&os.O_CREATE == 0 {
			if c.dead {
				return nil, errCrash
			}
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if _, err := c.tick("create "+filepath.Base(name), false); err != nil {
			return nil, err
		}
		ino = &inode{}
		c.names[name] = ino
	} else if flag&os.O_TRUNC != 0 && len(ino.data) > 0 {
		if _, err := c.tick("truncate "+filepath.Base(name), false); err != nil {
			return nil, err
		}
		ino.data = nil
	}
	return &crashFile{fs: c, ino: ino, name: filepath.Base(name)}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.tick("rename "+filepath.Base(newpath), false); err != nil {
		return err
	}
	ino := c.names[oldpath]
	if ino == nil {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	c.names[newpath] = ino
	delete(c.names, oldpath)
	return nil
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.names[name] == nil {
		if c.dead {
			return errCrash
		}
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	if _, err := c.tick("remove "+filepath.Base(name), false); err != nil {
		return err
	}
	delete(c.names, name)
	return nil
}

// MkdirAll has nothing to do: directories are only name prefixes here.
func (c *crashFS) MkdirAll(string) error { return nil }

func (c *crashFS) SyncDir(path string) error {
	c.mu.Lock()
	if _, err := c.tick("syncdir", false); err != nil {
		c.mu.Unlock()
		return err
	}
	for name := range c.dnames {
		if filepath.Dir(name) == path {
			delete(c.dnames, name)
		}
	}
	for name, ino := range c.names {
		if filepath.Dir(name) == path {
			c.dnames[name] = ino
		}
	}
	hook := c.onSync
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return nil
}

// kept returns a live file system holding what the host kept: everything
// the process wrote (volatile: the process died, the host did not) or only
// what was synced (a power loss).
func (c *crashFS) kept(volatile bool) *crashFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := newCrashFS()
	src := c.dnames
	if volatile {
		src = c.names
	}
	for name, ino := range src {
		img := ino.ddata
		if volatile {
			img = ino.data
		}
		img = append([]byte(nil), img...)
		n := &inode{data: img, ddata: append([]byte(nil), img...)}
		out.names[name], out.dnames[name] = n, n
	}
	return out
}

// put replaces (or creates) a file, durably: the host's hand on the disk.
func (c *crashFS) put(name string, content []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &inode{data: append([]byte(nil), content...), ddata: append([]byte(nil), content...)}
	c.names[name], c.dnames[name] = n, n
}

// read returns a file's volatile image, nil when absent.
func (c *crashFS) read(name string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ino := c.names[name]; ino != nil {
		return append([]byte{}, ino.data...)
	}
	return nil
}

func (c *crashFS) describe(i int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < len(c.lastOps) {
		return fmt.Sprintf("op %d (%s)", i, c.lastOps[i])
	}
	return fmt.Sprintf("op %d", i)
}

type crashFile struct {
	fs   *crashFS
	ino  *inode
	name string
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	half, err := f.fs.tick(fmt.Sprintf("write %s @%d+%d", f.name, off, len(p)), true)
	if err != nil {
		return 0, err
	}
	if half {
		p = p[:len(p)/2]
	}
	if need := int(off) + len(p); need > len(f.ino.data) {
		f.ino.data = append(f.ino.data, make([]byte, need-len(f.ino.data))...)
	}
	copy(f.ino.data[off:], p)
	if half {
		return len(p), errCrash
	}
	return len(p), nil
}

func (f *crashFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.ino.data)), nil
}

func (f *crashFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.tick(fmt.Sprintf("truncate %s to %d", f.name, size), false); err != nil {
		return err
	}
	if size < int64(len(f.ino.data)) {
		f.ino.data = f.ino.data[:size]
	} else {
		f.ino.data = append(f.ino.data, make([]byte, size-int64(len(f.ino.data)))...)
	}
	return nil
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	if _, err := f.fs.tick("sync "+f.name, false); err != nil {
		f.fs.mu.Unlock()
		return err
	}
	f.ino.ddata = append([]byte(nil), f.ino.data...)
	hook := f.fs.onSync
	f.fs.mu.Unlock()
	if hook != nil {
		hook()
	}
	return nil
}

func (f *crashFile) Close() error { return nil }
