package persist

import (
	"time"

	"snoopy/internal/hostfs"
	"snoopy/internal/telemetry"
)

// ioMeter counts one sealed file's writes and syncs under a fixed public
// label (log ∈ {wal, journal, counter}), so "syncs per epoch" is
// readable from /metrics. Payloads are byte counts and durations of
// fixed-shape I/O.
type ioMeter struct {
	tel   *telemetry.Registry
	syncs *telemetry.Counter
	bytes *telemetry.Counter
	lat   *telemetry.Histogram
}

func newIOMeter(reg *telemetry.Registry, label string) ioMeter {
	l := `{log="` + label + `"}`
	return ioMeter{
		tel:   reg,
		syncs: reg.Counter("persist_syncs_total" + l),
		bytes: reg.Counter("persist_bytes_written_total" + l),
		lat:   reg.Histogram("persist_sync_seconds"+l, nil),
	}
}

// write writes b at off and counts it.
func (m *ioMeter) write(f hostfs.File, b []byte, off int64) error {
	if _, err := f.WriteAt(b, off); err != nil {
		return err
	}
	m.bytes.Add(uint64(len(b)))
	return nil
}

// sync makes f durable and records how long that took.
func (m *ioMeter) sync(f hostfs.File) error {
	t0 := m.tel.Now()
	err := f.Sync()
	m.lat.Observe(time.Duration(m.tel.Now() - t0))
	m.syncs.Inc()
	return err
}
