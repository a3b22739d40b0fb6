// Package cluster is the standby root's watchdog: a consecutive-miss
// failure detector over the load-balancer root's liveness, fed by WatchRoot
// probes or ObserveRootHealth, that promotes a standby root over the shared
// epoch journal once the root is declared down, with its own accounting
// (trips, promotions, failed promotions, time-to-recovery).
//
// Partition failover is not here. Every epoch, idle or not, sends each
// partition a batch, so the epoch is the partition heartbeat: core counts a
// partition's consecutive failed epochs and calls Config.Failover itself.
// Only a standby root, which runs in another process and sees no epochs,
// needs a detector of its own.
//
// Every threshold and interval here is public deployment configuration
// (Policy). Root failure handling therefore reveals only that the root is
// down and when — information the epoch schedule and connection state
// already make public — and nothing about the data or queries.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/metrics"
	"snoopy/internal/telemetry"
)

// Policy holds the root detector's public deployment parameters. The zero
// value gets defaults.
type Policy struct {
	// FailAfter is the consecutive-miss threshold: the root is declared
	// down after this many failed observations in a row. Default 3.
	FailAfter int
	// ProbeInterval is the WatchRoot period, the bound on one probe, and
	// the delay between failed promotion attempts (default 1s).
	ProbeInterval time.Duration
}

func (p *Policy) fillDefaults() {
	if p.FailAfter <= 0 {
		p.FailAfter = 3
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = time.Second
	}
}

// RootPromoteFunc promotes a standby root over a dead one: typically it
// opens a fresh core.System on the same Config.JournalDir (which replays
// the dead root's journaled-but-incomplete epochs against the partitions)
// and returns it. The old root is passed for salvage/close; it may be nil
// when the supervisor only probed a remote root. Returning an error (or
// nil) counts a promotion failure; the supervisor retries every
// ProbeInterval while the root stays down.
type RootPromoteFunc func(old *core.System) (*core.System, error)

// Stats is a snapshot of the supervisor's root-failover accounting.
type Stats struct {
	// RootTrips counts down-transitions of the root detector.
	RootTrips uint64
	// RootPromotions counts standby roots successfully promoted.
	RootPromotions uint64
	// RootPromotionFailures counts failed promotion attempts (retried
	// every ProbeInterval while the root stays down).
	RootPromotionFailures uint64
	// RootRecoveries counts completed root outages, and the two durations
	// below summarize their trip → standby-serving times.
	RootRecoveries         int
	RootMeanTimeToRecovery time.Duration
	RootMaxTimeToRecovery  time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("root_trips=%d root_promotions=%d root_promotion_failures=%d root_recoveries=%d root_mttr=%v root_max_ttr=%v",
		s.RootTrips, s.RootPromotions, s.RootPromotionFailures, s.RootRecoveries,
		s.RootMeanTimeToRecovery, s.RootMaxTimeToRecovery)
}

// Supervisor watches one root and promotes a standby when it trips.
// Typical wiring:
//
//	sup := cluster.NewSupervisor(cluster.Policy{FailAfter: 3})
//	sup.SuperviseRoot(nil, promote) // promote opens the shared journal
//	sup.WatchRoot(probe)            // background heartbeats
type Supervisor struct {
	policy Policy

	mu        sync.Mutex
	promote   RootPromoteFunc
	cur       *core.System
	misses    int
	down      bool
	promoting bool
	downSince time.Time

	trips             metrics.Counter
	promotions        metrics.Counter
	promotionFailures metrics.Counter
	recovery          metrics.Latencies

	// Telemetry mirrors of the counters above, bumped at the same sites;
	// all nil (no-ops) until Instrument.
	telTrips      *telemetry.Counter
	telPromotions *telemetry.Counter
	telPromFails  *telemetry.Counter
	telRecovery   *telemetry.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewSupervisor creates a root supervisor under policy.
func NewSupervisor(policy Policy) *Supervisor {
	policy.fillDefaults()
	return &Supervisor{policy: policy, stop: make(chan struct{})}
}

// Instrument mirrors the supervisor's accounting — trips, promotions and
// failed promotions, and the time-to-recovery distribution — into a
// telemetry registry. Every value is already tracked internally (Stats);
// Instrument adds an export path, not a new observation, so the two agree
// exactly (asserted by TestRootPromotionOnTrip). Call it before the
// supervisor is wired into a running system.
func (s *Supervisor) Instrument(reg *telemetry.Registry) {
	s.telTrips = reg.Counter("cluster_root_trips_total")
	s.telPromotions = reg.Counter("cluster_root_promotions_total")
	s.telPromFails = reg.Counter("cluster_root_promotion_failures_total")
	s.telRecovery = reg.Histogram("cluster_root_time_to_recovery", nil)
}

// SuperviseRoot installs the root to watch and the standby promotion that
// runs (and is retried every ProbeInterval) once it is declared down.
// initial is the currently serving root (nil when only probing a remote
// root).
func (s *Supervisor) SuperviseRoot(initial *core.System, promote RootPromoteFunc) {
	s.mu.Lock()
	s.cur, s.promote = initial, promote
	s.mu.Unlock()
}

// Root returns the currently serving root system (the promoted standby
// after a failover).
func (s *Supervisor) Root() *core.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// RootDown reports whether the root is currently declared down (and not
// yet re-promoted).
func (s *Supervisor) RootDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// ObserveRootHealth feeds one liveness observation for the root: ok=false
// is a miss (a failed probe, or core reporting the root crashed), ok=true
// resets the run. The FailAfter-th consecutive miss trips the detector
// and starts the promotion.
func (s *Supervisor) ObserveRootHealth(ok bool) {
	s.mu.Lock()
	trip := false
	if ok {
		s.misses = 0
		s.down = false
	} else {
		s.misses++
		if s.misses >= s.policy.FailAfter && !s.down {
			s.down, trip = true, true
			s.trips.Inc()
			s.telTrips.Inc()
		}
	}
	s.mu.Unlock()
	if trip {
		s.promoteRoot()
	}
}

// WatchRoot starts the background heartbeat loop for the root: every
// ProbeInterval the probe runs with ProbeInterval as its bound and feeds
// ObserveRootHealth. For an in-process root the probe typically checks
// Crashed(); for a remote one it dials the root's liveness address. The
// loop reads the current root through the supervisor, so it follows
// promotions. Stops at Close.
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
				s.ObserveRootHealth(probe(s.Root(), s.policy.ProbeInterval) == nil)
			}
		}
	}()
}

// promoteRoot runs promotion attempts until a standby is serving or the
// supervisor closes. Exactly one loop runs per outage.
func (s *Supervisor) promoteRoot() {
	s.mu.Lock()
	if s.promote == nil || s.promoting {
		s.mu.Unlock()
		return
	}
	s.promoting = true
	s.downSince = time.Now()
	promote := s.promote
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			repl, err := promote(s.Root())
			if err == nil && repl == nil {
				err = fmt.Errorf("cluster: root promotion returned no system")
			}
			if err == nil {
				// Account before clearing down: a caller that sees the root
				// up again also sees the promotion counted.
				s.mu.Lock()
				took := time.Since(s.downSince)
				s.promotions.Inc()
				s.telPromotions.Inc()
				s.recovery.Add(took)
				s.telRecovery.Observe(took)
				s.cur, s.promoting, s.misses, s.down = repl, false, 0, false
				s.mu.Unlock()
				return
			}
			s.promotionFailures.Inc()
			s.telPromFails.Inc()
			select {
			case <-s.stop:
				s.mu.Lock()
				s.promoting = false
				s.mu.Unlock()
				return
			case <-time.After(s.policy.ProbeInterval):
			}
		}
	}()
}

// Stats snapshots the root-failover accounting.
func (s *Supervisor) Stats() Stats {
	return Stats{
		RootTrips:              s.trips.Load(),
		RootPromotions:         s.promotions.Load(),
		RootPromotionFailures:  s.promotionFailures.Load(),
		RootRecoveries:         s.recovery.Count(),
		RootMeanTimeToRecovery: s.recovery.Mean(),
		RootMaxTimeToRecovery:  s.recovery.Max(),
	}
}

// Close stops the WatchRoot loop and any promotion retries and waits for
// them to exit.
func (s *Supervisor) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
