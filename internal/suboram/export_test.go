package suboram

import (
	"fmt"
	"os"
	"testing"

	"snoopy/internal/hostfs"
	"snoopy/internal/ohash"
)

// ScanTable runs the linear scan against a table the caller built, for the
// external tests that put a table of another shape through the real scan.
func (s *SubORAM) ScanTable(t *ohash.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scan([]*ohash.Table{t}, &Stats{})
}

// UseKernel makes every scan worker run the named obliv.Kernels body
// instead of the platform's widest, for the all-bodies differentials.
func (s *SubORAM) UseKernel(name string) {
	for w := range s.scanCtx {
		s.scanCtx[w].tiers.Use(name)
	}
}

// Test-only hooks: the untrusted host reading and rewriting a sealed
// partition's memory (paper §2 integrity threat model).

// sealedData names the sealed partition's data file in host memory. The
// store keeps exactly one, segments-<generation>.dat: every load starts the
// next generation and removes the previous one.
func sealedData(t *testing.T, mem *hostfs.Mem) string {
	t.Helper()
	var names []string
	for gen := 1; gen <= 64; gen++ {
		name := fmt.Sprintf("segments-%d.dat", gen)
		if _, err := mem.OpenFile(name, os.O_RDONLY); err == nil {
			names = append(names, name)
		}
	}
	if len(names) != 1 {
		t.Fatalf("host memory holds data files %q, want exactly one", names)
	}
	return names[0]
}

// hostBytes returns a copy of the sealed partition's bytes in host memory.
func hostBytes(t *testing.T, mem *hostfs.Mem) []byte {
	t.Helper()
	b, err := hostfs.ReadFile(mem, sealedData(t, mem), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// setHostBytes overwrites the sealed partition's bytes in host memory.
func setHostBytes(t *testing.T, mem *hostfs.Mem, b []byte) {
	t.Helper()
	f, err := mem.OpenFile(sealedData(t, mem), os.O_RDWR)
	if err == nil {
		_, err = f.WriteAt(b, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
}
