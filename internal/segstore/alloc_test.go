package segstore

import (
	"testing"

	"snoopy/internal/crypt"
)

// TestScanZeroAllocSteadyState: once the buffer pool is warm, a full
// streaming scan — read slot, authenticate, open, visit every block,
// reseal, write back, update the registry entry — performs zero heap
// allocations. Anything else would make scan cost drift with GC pressure
// and turn the disk-resident path into an allocation hotspot at exactly
// the partition sizes it exists for.
func TestScanZeroAllocSteadyState(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		BlockSize:     32,
		SegmentBlocks: 8,
		Key:           crypt.MustNewKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 256 // 32 segments, far more than one warm-up touches lazily
	if err := s.Format(n); err != nil {
		t.Fatal(err)
	}
	noop := func(i int, blks []byte) {}
	if err := s.Scan(0, n, noop); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Scan(0, n, noop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Scan allocated %.1f times per run, want 0", allocs)
	}
}
