package suboram

import "snoopy/internal/ohash"

// ScanTable runs the linear scan against a table the caller built, for the
// external tests that put a table of another shape through the real scan.
func (s *SubORAM) ScanTable(t *ohash.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scan(t)
}

// UseKernel makes every scan worker run the named obliv.Kernels body
// instead of the platform's widest, for the all-bodies differentials.
func (s *SubORAM) UseKernel(name string) {
	for w := range s.scanCtx {
		s.scanCtx[w].t1.Use(name)
		s.scanCtx[w].t2.Use(name)
	}
}

// Test-only hooks: simulate the untrusted host attacking the sealed
// external memory (paper §2 integrity threat model).

func (s *SubORAM) corruptSealedBlock(i int) { s.sealed.Corrupt(i) }

func (s *SubORAM) replaySealedBlock(i int, snap []byte) { s.sealed.Replay(i, snap) }

func (s *SubORAM) snapshotSealedBlock(i int) []byte { return s.sealed.Snapshot(i) }
