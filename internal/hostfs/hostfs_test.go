package hostfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/enclave"
)

// Both production file systems must agree on every behaviour the sealed
// stores rely on.
func forEachFS(t *testing.T, test func(t *testing.T, fs FS, dir string)) {
	t.Run("os", func(t *testing.T) { test(t, OS, t.TempDir()) })
	t.Run("mem", func(t *testing.T) { test(t, NewMem(), "state") })
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	forEachFS(t, func(t *testing.T, fs FS, dir string) {
		name := filepath.Join(dir, "f")
		if _, err := ReadFile(fs, name, 1<<10); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("absent file: err = %v, want os.ErrNotExist", err)
		}
		for _, content := range [][]byte{[]byte("first version"), []byte("v2")} {
			if err := WriteFileAtomic(fs, name, content); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fs, name, 1<<10)
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("read back %q, %v; want %q", got, err, content)
			}
		}
		if _, err := fs.OpenFile(name+".tmp", os.O_RDONLY); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temporary file left behind: %v", err)
		}
		if _, err := ReadFile(fs, name, 1); !errors.Is(err, enclave.ErrIntegrity) {
			t.Fatalf("file beyond the limit: err = %v, want ErrIntegrity class", err)
		}
	})
}

func TestPositionalIO(t *testing.T) {
	forEachFS(t, func(t *testing.T, fs FS, dir string) {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, "data")
		if _, err := fs.OpenFile(name, os.O_RDWR); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("open without O_CREATE: err = %v, want os.ErrNotExist", err)
		}
		f, err := fs.OpenFile(name, os.O_RDWR|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("abcd"), 4); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if n, err := f.ReadAt(buf, 0); n != 8 || err != nil || !bytes.Equal(buf, []byte("\x00\x00\x00\x00abcd")) {
			t.Fatalf("ReadAt = %d, %v, %q: a write past the end must zero-fill the gap", n, err, buf)
		}
		if n, err := f.ReadAt(buf, 6); n != 2 || err != io.EOF {
			t.Fatalf("short ReadAt = %d, %v; want 2, io.EOF", n, err)
		}
		// Shrink, then grow: the regrown tail reads as zeros, not old bytes.
		for _, size := range []int64{5, 8} {
			if err := f.Truncate(size); err != nil {
				t.Fatal(err)
			}
		}
		if size, err := f.Size(); size != 8 || err != nil {
			t.Fatalf("Size = %d, %v; want 8", size, err)
		}
		f.ReadAt(buf, 0)
		if !bytes.Equal(buf, []byte("\x00\x00\x00\x00a\x00\x00\x00")) {
			t.Fatalf("after shrink and grow: %q", buf)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("second Remove: err = %v, want os.ErrNotExist", err)
		}
		if err := fs.Rename(name, name+"2"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Rename of an absent file: err = %v, want os.ErrNotExist", err)
		}
	})
}
