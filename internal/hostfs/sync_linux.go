//go:build linux

package hostfs

import (
	"os"
	"syscall"
)

// datasync flushes f's data and length without forcing the inode's
// timestamps out as well — one journal commit fewer than fsync on the
// append path.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
