//go:build !linux

package hostfs

import "os"

// datasync is fsync where the platform offers no fdatasync.
func datasync(f *os.File) error { return f.Sync() }
