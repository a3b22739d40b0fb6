//go:build !linux

package persist

import "os"

// datasync is fsync where the platform offers no fdatasync.
func datasync(f *os.File) error { return f.Sync() }
