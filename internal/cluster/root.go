package cluster

import (
	"fmt"
	"sync"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/metrics"
)

// RootPromoteFunc promotes a standby root over a dead one: typically it
// opens a fresh core.System on the same Config.JournalDir (which replays
// the dead root's journaled-but-incomplete epochs against the partitions)
// and returns it. The old root is passed for salvage/close; it may be nil
// on a retry after a failed attempt. Returning an error (or nil) counts a
// promotion failure; the supervisor retries every ProbeInterval while the
// root stays down.
type RootPromoteFunc func(old *core.System) (*core.System, error)

// rootPlane is the supervisor's root-failover state, separate from the
// partition detector so root trips never bleed into partition accounting
// (and vice versa).
type rootPlane struct {
	det     *Detector
	promote RootPromoteFunc

	mu        sync.Mutex
	cur       *core.System
	promoting bool
	downSince time.Time

	promotions        metrics.Counter
	promotionFailures metrics.Counter
	recovery          metrics.Latencies
}

// SuperviseRoot adds root-failover supervision: the same consecutive-miss
// detector and Policy knobs as partitions, fed by WatchRoot probes and
// ObserveRootHealth, with promote invoked (and retried every
// ProbeInterval) once the root is declared down. initial is the currently
// serving root (may be nil when only probing a remote root).
func (s *Supervisor) SuperviseRoot(initial *core.System, promote RootPromoteFunc) {
	r := &rootPlane{
		det:     NewDetector(1, s.policy),
		promote: promote,
		cur:     initial,
	}
	if s.reg != nil {
		r.det.mu.Lock()
		r.det.telTrips = s.reg.Counter("cluster_root_trips_total")
		r.det.mu.Unlock()
	}
	r.det.OnTrip(func(int) { s.promoteRoot() })
	s.rootMu.Lock()
	s.root = r
	s.rootMu.Unlock()
}

// Root returns the currently serving root system (the promoted standby
// after a failover). Nil until SuperviseRoot.
func (s *Supervisor) Root() *core.System {
	s.rootMu.Lock()
	r := s.root
	s.rootMu.Unlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// RootDown reports whether the root is currently declared down (and not
// yet re-promoted). False until SuperviseRoot.
func (s *Supervisor) RootDown() bool {
	s.rootMu.Lock()
	r := s.root
	s.rootMu.Unlock()
	return r != nil && r.det.Down(0)
}

// ObserveRootHealth feeds one epoch-level liveness observation for the
// root (ok=false: epochs stopped advancing, or core reported the root
// crashed). No-op until SuperviseRoot.
func (s *Supervisor) ObserveRootHealth(ok bool) {
	s.rootMu.Lock()
	r := s.root
	s.rootMu.Unlock()
	if r != nil {
		r.det.Observe(0, ok)
	}
}

// WatchRoot starts the background heartbeat loop for the root, the analogue
// of Watch for partitions: every ProbeInterval the probe runs under
// ProbeTimeout and feeds the root detector. For an in-process root the
// probe typically checks Crashed(); for a remote one it is an attested
// Ping. The loop reads the current root through the supervisor, so it
// follows promotions. Stops at Close.
func (s *Supervisor) WatchRoot(probe func(sys *core.System, timeout time.Duration) error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.policy.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ObserveRootHealth(probe(s.Root(), s.policy.ProbeTimeout) == nil)
			}
		}
	}()
}

// promoteRoot runs promotion attempts until a standby is serving or the
// supervisor closes. Exactly one loop runs per outage.
func (s *Supervisor) promoteRoot() {
	s.rootMu.Lock()
	r := s.root
	s.rootMu.Unlock()
	if r == nil || r.promote == nil {
		return
	}
	r.mu.Lock()
	if r.promoting {
		r.mu.Unlock()
		return
	}
	r.promoting = true
	r.downSince = time.Now()
	r.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			r.mu.Lock()
			old := r.cur
			r.mu.Unlock()
			repl, err := r.promote(old)
			if err == nil && repl == nil {
				err = fmt.Errorf("cluster: root promotion returned no system")
			}
			if err == nil {
				r.mu.Lock()
				r.cur = repl
				r.promoting = false
				took := time.Since(r.downSince)
				r.downSince = time.Time{}
				r.mu.Unlock()
				r.promotions.Inc()
				s.telRootPromotions.Inc()
				r.recovery.Add(took)
				s.telRootRecovery.Observe(took)
				r.det.Observe(0, true)
				return
			}
			r.promotionFailures.Inc()
			s.telRootPromFails.Inc()
			select {
			case <-s.stop:
				r.mu.Lock()
				r.promoting = false
				r.mu.Unlock()
				return
			case <-time.After(s.policy.ProbeInterval):
			}
		}
	}()
}

// rootStats folds the root plane into a Stats snapshot.
func (s *Supervisor) rootStats(st *Stats) {
	s.rootMu.Lock()
	r := s.root
	s.rootMu.Unlock()
	if r == nil {
		return
	}
	st.RootTrips = r.det.Trips()
	st.RootPromotions = r.promotions.Load()
	st.RootPromotionFailures = r.promotionFailures.Load()
	st.RootRecoveries = r.recovery.Count()
	st.RootMeanTimeToRecovery = r.recovery.Mean()
	st.RootMaxTimeToRecovery = r.recovery.Max()
}
