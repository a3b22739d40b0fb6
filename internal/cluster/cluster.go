// Package cluster is the supervision layer that closes Snoopy's failure
// loop (paper §9): a heartbeat/probe failure detector layered over the
// transport's attested channels and core's per-epoch health accounting, and
// a supervisor that turns detector trips into partition failover — promoting
// a standby replica or a node restored from sealed state — with full
// observability (trips, promotions, time-to-recovery).
//
// Every threshold and interval here is public deployment configuration
// (Policy). Failure handling therefore reveals only which partitions are
// down and when — information the epoch schedule and connection state
// already make public — and nothing about the data or queries (Theorem 3 is
// unaffected: batch shapes, resync sizes, and reply timing stay functions
// of public parameters only).
package cluster

import (
	"fmt"
	"sync"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/metrics"
	"snoopy/internal/telemetry"
)

// Policy holds the failure detector's public deployment parameters. The
// zero value gets defaults.
type Policy struct {
	// FailAfter is the consecutive-miss threshold: a partition is declared
	// down after this many failed observations in a row (epoch failures and
	// probe timeouts both count). Default 3.
	FailAfter int
	// ProbeInterval is the background heartbeat period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe (default ProbeInterval).
	ProbeTimeout time.Duration
}

func (p *Policy) fillDefaults() {
	if p.FailAfter <= 0 {
		p.FailAfter = 3
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = time.Second
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = p.ProbeInterval
	}
}

// Detector is a consecutive-miss failure detector over a fixed set of
// partitions. Two feeds drive it: per-epoch batch outcomes (ObserveHealth,
// from core.HealthStats) and background liveness probes (Observe, from a
// Supervisor's probe loops). Either feed alone can trip it.
type Detector struct {
	policy Policy
	trips  metrics.Counter
	// telTrips mirrors trips into a telemetry registry when set
	// (Supervisor.Instrument); nil no-ops.
	telTrips *telemetry.Counter

	mu     sync.Mutex
	misses []int
	down   []bool
	onTrip func(part int)
}

// NewDetector creates a detector for parts partitions.
func NewDetector(parts int, policy Policy) *Detector {
	policy.fillDefaults()
	return &Detector{
		policy: policy,
		misses: make([]int, parts),
		down:   make([]bool, parts),
	}
}

// OnTrip registers a callback invoked (without the detector lock held in
// the caller's future; it is called synchronously from Observe) exactly
// once per transition to down.
func (d *Detector) OnTrip(fn func(part int)) {
	d.mu.Lock()
	d.onTrip = fn
	d.mu.Unlock()
}

// Observe feeds one liveness observation for a partition: ok=false is a
// miss (probe timeout, epoch failure), ok=true resets the run and marks a
// previously-down partition recovered.
func (d *Detector) Observe(part int, ok bool) {
	d.mu.Lock()
	var trip func(int)
	if ok {
		d.misses[part] = 0
		d.down[part] = false
	} else {
		d.misses[part]++
		if d.misses[part] >= d.policy.FailAfter && !d.down[part] {
			d.down[part] = true
			d.trips.Inc()
			d.telTrips.Inc()
			trip = d.onTrip
		}
	}
	d.mu.Unlock()
	if trip != nil {
		trip(part)
	}
}

// ObserveHealth feeds a core health snapshot: each partition's current
// consecutive-failure run is folded into the detector (a run of zero is a
// healthy observation). Call it once per epoch.
func (d *Detector) ObserveHealth(h core.HealthStats) {
	for part, run := range h.ConsecutiveFailures {
		d.Observe(part, run == 0)
	}
}

// Down reports whether the partition is currently declared down.
func (d *Detector) Down(part int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down[part]
}

// Trips returns the total number of down transitions across all partitions.
func (d *Detector) Trips() uint64 { return d.trips.Load() }

// ProbeFunc is one liveness probe attempt — transport.RemoteSubORAM.Ping
// has exactly this shape; in-process deployments supply a closure.
type ProbeFunc func(timeout time.Duration) error

// Stats is a snapshot of the supervisor's observability counters.
type Stats struct {
	// Trips counts detector down-transitions.
	Trips uint64
	// Promotions counts successful failovers (replacement promoted).
	Promotions uint64
	// PromotionFailures counts failover attempts that returned no
	// replacement (retried by core while the partition keeps failing).
	PromotionFailures uint64
	// Recoveries counts completed outages with measured time-to-recovery.
	Recoveries int
	// MeanTimeToRecovery averages first-failed-epoch → promotion, over
	// completed recoveries.
	MeanTimeToRecovery time.Duration
	// MaxTimeToRecovery is the worst observed recovery.
	MaxTimeToRecovery time.Duration

	// RootTrips counts root-detector down-transitions (SuperviseRoot) —
	// strictly separate from partition Trips: a dead root must never
	// inflate partition failure accounting, and vice versa.
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
	return fmt.Sprintf("trips=%d root_trips=%d promotions=%d promotion_failures=%d recoveries=%d mttr=%v max_ttr=%v root_promotions=%d root_promotion_failures=%d root_recoveries=%d root_mttr=%v root_max_ttr=%v",
		s.Trips, s.RootTrips, s.Promotions, s.PromotionFailures, s.Recoveries,
		s.MeanTimeToRecovery, s.MaxTimeToRecovery,
		s.RootPromotions, s.RootPromotionFailures, s.RootRecoveries,
		s.RootMeanTimeToRecovery, s.RootMaxTimeToRecovery)
}

// Supervisor ties a Detector to a promotion source, producing the hooks a
// core.Config needs for automatic failover (Failover / OnFailover) plus
// background probe loops and metrics. Typical wiring:
//
//	sup := cluster.NewSupervisor(S, promote, cluster.Policy{FailAfter: 3})
//	cfg.FailoverAfter = sup.Policy().FailAfter
//	cfg.Failover = sup.Failover()
//	cfg.OnFailover = sup.OnFailover()
//	...
//	sup.Watch(s, remote.Ping) // background heartbeats per remote partition
type Supervisor struct {
	policy  Policy
	det     *Detector
	promote core.FailoverFunc

	// reg remembers the Instrument registry so SuperviseRoot can attach its
	// detector's trip counter whichever call comes first.
	reg *telemetry.Registry

	promotions        metrics.Counter
	promotionFailures metrics.Counter
	recovery          metrics.Latencies

	// Telemetry mirrors of the counters above, bumped at the same sites;
	// all nil (no-ops) until Instrument.
	telPromotions  *telemetry.Counter
	telPromFails   *telemetry.Counter
	telRecoveryDur *telemetry.Histogram

	// Root-failover plane (SuperviseRoot); nil until installed. Its
	// telemetry mirrors live here so Instrument works in either order.
	rootMu            sync.Mutex
	root              *rootPlane
	telRootPromotions *telemetry.Counter
	telRootPromFails  *telemetry.Counter
	telRootRecovery   *telemetry.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// Instrument mirrors the supervisor's accounting — detector trips,
// promotions and failed promotions, and the time-to-recovery distribution —
// into a telemetry registry. Every value is already tracked internally
// (Stats); Instrument adds an export path, not a new observation, so
// telemetry-reported failover activity matches Stats exactly (asserted by
// the chaos harness). Call it before the supervisor is wired into a running
// system (before Watch / Failover installation).
func (s *Supervisor) Instrument(reg *telemetry.Registry) {
	s.reg = reg
	s.det.mu.Lock()
	s.det.telTrips = reg.Counter("cluster_detector_trips_total")
	s.det.mu.Unlock()
	s.telPromotions = reg.Counter("cluster_promotions_total")
	s.telPromFails = reg.Counter("cluster_promotion_failures_total")
	s.telRecoveryDur = reg.Histogram("cluster_time_to_recovery", nil)
	s.rootMu.Lock()
	if r := s.root; r != nil {
		r.det.mu.Lock()
		r.det.telTrips = reg.Counter("cluster_root_trips_total")
		r.det.mu.Unlock()
	}
	s.rootMu.Unlock()
	s.telRootPromotions = reg.Counter("cluster_root_promotions_total")
	s.telRootPromFails = reg.Counter("cluster_root_promotion_failures_total")
	s.telRootRecovery = reg.Histogram("cluster_root_time_to_recovery", nil)
}

// NewSupervisor creates a supervisor for parts partitions. promote is the
// deployment's replacement source — promote a replica.Group spare, redial a
// restarted node, reopen sealed state — with core.FailoverFunc's contract.
func NewSupervisor(parts int, promote core.FailoverFunc, policy Policy) *Supervisor {
	policy.fillDefaults()
	return &Supervisor{
		policy:  policy,
		det:     NewDetector(parts, policy),
		promote: promote,
		stop:    make(chan struct{}),
	}
}

// Policy returns the (defaults-filled) policy in effect.
func (s *Supervisor) Policy() Policy { return s.policy }

// Detector exposes the underlying failure detector (for epoch feeds and
// status queries).
func (s *Supervisor) Detector() *Detector { return s.det }

// Failover returns the hook to install as core.Config.Failover: it records
// the trip, delegates to the promotion source, and accounts the outcome.
func (s *Supervisor) Failover() core.FailoverFunc {
	return func(part int, old core.SubORAMClient) (core.SubORAMClient, error) {
		// core's own threshold fired; fold the declaration into the
		// detector so probe-driven and epoch-driven trips share one view.
		s.det.declareDown(part)
		repl, err := s.promote(part, old)
		if err != nil || repl == nil {
			s.promotionFailures.Inc()
			s.telPromFails.Inc()
			return nil, err
		}
		s.promotions.Inc()
		s.telPromotions.Inc()
		s.det.Observe(part, true)
		return repl, nil
	}
}

// declareDown forces the down state (a trip, if not already down),
// regardless of the current miss run.
func (d *Detector) declareDown(part int) {
	d.mu.Lock()
	var trip func(int)
	if !d.down[part] {
		d.down[part] = true
		d.misses[part] = d.policy.FailAfter
		d.trips.Inc()
		d.telTrips.Inc()
		trip = d.onTrip
	}
	d.mu.Unlock()
	if trip != nil {
		trip(part)
	}
}

// OnFailover returns the observer to install as core.Config.OnFailover; it
// feeds the time-to-recovery distribution on successful promotions.
func (s *Supervisor) OnFailover() func(part int, took time.Duration, err error) {
	return func(part int, took time.Duration, err error) {
		if err == nil {
			s.recovery.Add(took)
			s.telRecoveryDur.Observe(took)
		}
	}
}

// Watch starts a background heartbeat loop for one partition: every
// ProbeInterval it runs probe under ProbeTimeout and feeds the detector.
// probe must tolerate being called after the partition was replaced (pass a
// closure reading the current client when failover swaps it). Watch loops
// stop at Close.
func (s *Supervisor) Watch(part int, probe ProbeFunc) {
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
				s.det.Observe(part, probe(s.policy.ProbeTimeout) == nil)
			}
		}
	}()
}

// ObserveHealth feeds a per-epoch core health snapshot into the detector.
func (s *Supervisor) ObserveHealth(h core.HealthStats) { s.det.ObserveHealth(h) }

// Down reports whether the partition is currently declared down.
func (s *Supervisor) Down(part int) bool { return s.det.Down(part) }

// Stats snapshots the supervision counters.
func (s *Supervisor) Stats() Stats {
	st := Stats{
		Trips:              s.det.Trips(),
		Promotions:         s.promotions.Load(),
		PromotionFailures:  s.promotionFailures.Load(),
		Recoveries:         s.recovery.Count(),
		MeanTimeToRecovery: s.recovery.Mean(),
		MaxTimeToRecovery:  s.recovery.Max(),
	}
	s.rootStats(&st)
	return st
}

// Close stops all Watch loops and waits for them to exit.
func (s *Supervisor) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
