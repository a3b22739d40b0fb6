//go:build race

package ohash

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a share of what is put back, so a pooled path allocates by design there:
// the zero-allocation guards still run their bodies but skip the count.
const raceEnabled = true
