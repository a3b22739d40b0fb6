package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
)

func TestDetectorTripsAtThresholdOnly(t *testing.T) {
	d := NewDetector(2, Policy{FailAfter: 3})
	var tripped []int
	d.OnTrip(func(part int) { tripped = append(tripped, part) })

	d.Observe(0, false)
	d.Observe(0, false)
	if d.Down(0) || d.Trips() != 0 {
		t.Fatalf("tripped below threshold: down=%v trips=%d", d.Down(0), d.Trips())
	}
	d.Observe(0, false)
	if !d.Down(0) || d.Trips() != 1 || len(tripped) != 1 || tripped[0] != 0 {
		t.Fatalf("no trip at threshold: down=%v trips=%d tripped=%v", d.Down(0), d.Trips(), tripped)
	}
	// Staying down is not a new trip.
	d.Observe(0, false)
	if d.Trips() != 1 {
		t.Fatalf("repeated miss re-tripped: trips=%d", d.Trips())
	}
	// The other partition is independent.
	if d.Down(1) {
		t.Fatal("partition 1 marked down without observations")
	}
	// A success resets the run and recovers.
	d.Observe(0, true)
	if d.Down(0) {
		t.Fatal("success did not recover partition 0")
	}
	// The next outage needs a full fresh run, and trips again.
	d.Observe(0, false)
	d.Observe(0, false)
	if d.Down(0) {
		t.Fatal("stale misses survived recovery")
	}
	d.Observe(0, false)
	if !d.Down(0) || d.Trips() != 2 {
		t.Fatalf("second outage not tripped: trips=%d", d.Trips())
	}
}

func TestDetectorObserveHealth(t *testing.T) {
	d := NewDetector(2, Policy{FailAfter: 2})
	h := core.HealthStats{ConsecutiveFailures: []int{0, 1}}
	d.ObserveHealth(h) // epoch 1: partition 1 failing
	d.ObserveHealth(h) // epoch 2: still failing
	if d.Down(0) || !d.Down(1) {
		t.Fatalf("health feed: down0=%v down1=%v", d.Down(0), d.Down(1))
	}
	d.ObserveHealth(core.HealthStats{ConsecutiveFailures: []int{0, 0}})
	if d.Down(1) {
		t.Fatal("healthy epoch did not recover partition 1")
	}
}

func TestSupervisorProbeLoopTripsAndRecovers(t *testing.T) {
	var dead atomic.Bool
	sup := NewSupervisor(1, nil, Policy{
		FailAfter: 2, ProbeInterval: 5 * time.Millisecond, ProbeTimeout: 5 * time.Millisecond,
	})
	defer sup.Close()
	sup.Watch(0, func(timeout time.Duration) error {
		if dead.Load() {
			return errors.New("probe timeout")
		}
		return nil
	})

	deadline := time.Now().Add(5 * time.Second)
	dead.Store(true)
	for !sup.Down(0) {
		if time.Now().After(deadline) {
			t.Fatal("probe misses never tripped the detector")
		}
		time.Sleep(time.Millisecond)
	}
	if sup.Stats().Trips != 1 {
		t.Fatalf("trips=%d", sup.Stats().Trips)
	}
	dead.Store(false)
	for sup.Down(0) {
		if time.Now().After(deadline) {
			t.Fatal("successful probes never recovered the partition")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorFailoverAccounting(t *testing.T) {
	healthy := suboram.New(suboram.Config{BlockSize: 32})
	var calls atomic.Int32
	sup := NewSupervisor(1, func(part int, old core.SubORAMClient) (core.SubORAMClient, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("standby not ready")
		}
		return healthy, nil
	}, Policy{})
	defer sup.Close()

	fo := sup.Failover()
	if _, err := fo(0, nil); err == nil {
		t.Fatal("first attempt should fail")
	}
	if !sup.Down(0) {
		t.Fatal("failover attempt did not declare the partition down")
	}
	st := sup.Stats()
	if st.Trips != 1 || st.PromotionFailures != 1 || st.Promotions != 0 {
		t.Fatalf("after failed attempt: %v", st)
	}
	repl, err := fo(0, nil)
	if err != nil || repl == nil {
		t.Fatalf("second attempt: %v %v", repl, err)
	}
	if sup.Down(0) {
		t.Fatal("promotion did not recover the partition")
	}
	sup.OnFailover()(0, 40*time.Millisecond, nil)
	sup.OnFailover()(0, time.Hour, errors.New("failed attempts do not count")) // ignored
	st = sup.Stats()
	if st.Promotions != 1 || st.Recoveries != 1 || st.MeanTimeToRecovery != 40*time.Millisecond {
		t.Fatalf("after promotion: %v", st)
	}
}

// crashable is a partition wrapper whose failure mode the test flips.
type crashable struct {
	inner core.SubORAMClient
	dead  atomic.Bool
}

func (c *crashable) Init(ids []uint64, data []byte) error { return c.inner.Init(ids, data) }

func (c *crashable) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	if c.dead.Load() {
		return nil, errors.New("partition crashed")
	}
	return c.inner.BatchAccess(reqs)
}

// TestSupervisorDrivesCoreFailover wires a Supervisor into a core.System
// end to end: a crashed partition trips core's consecutive-failure
// threshold, the supervisor's Failover hook promotes the standby, and the
// system converges back to healthy with the outage fully accounted.
func TestSupervisorDrivesCoreFailover(t *testing.T) {
	const blockSize = 32
	crash := &crashable{inner: suboram.New(suboram.Config{BlockSize: blockSize})}
	subs := []core.SubORAMClient{
		suboram.New(suboram.Config{BlockSize: blockSize}),
		crash,
	}
	sup := NewSupervisor(len(subs), func(part int, old core.SubORAMClient) (core.SubORAMClient, error) {
		return old.(*crashable).inner, nil
	}, Policy{FailAfter: 2})
	defer sup.Close()
	reg := telemetry.NewRegistry()
	sup.Instrument(reg)

	sys, err := core.NewWithSubORAMs(core.Config{
		BlockSize: blockSize, NumLoadBalancers: 1, Lambda: 32,
		FailoverAfter: sup.Policy().FailAfter,
		Failover:      sup.Failover(),
		OnFailover:    sup.OnFailover(),
		Telemetry:     reg,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const n = 16
	ids := make([]uint64, n)
	data := make([]byte, n*blockSize)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*blockSize] = byte(i + 1)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	crash.dead.Store(true)
	deadline := time.Now().Add(15 * time.Second)
	for {
		waits := make([]func() ([]byte, bool, error), n)
		for i := range ids {
			w, err := sys.ReadAsync(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			waits[i] = w
		}
		sys.Flush()
		bad := 0
		for i, w := range waits {
			v, found, err := w()
			if err != nil {
				bad++
			} else if !found || v[0] != byte(i+1) {
				t.Fatalf("key %d: wrong answer v=%v found=%v", i, v, found)
			}
		}
		sup.ObserveHealth(sys.Health())
		if bad == 0 && sys.Health().Healthy() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: health=%+v stats=%v", sys.Health(), sup.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := sup.Stats()
	if st.Trips < 1 || st.Promotions < 1 || st.Recoveries < 1 {
		t.Fatalf("outage not accounted: %v", st)
	}

	// The telemetry mirror must agree exactly with the supervisor's own
	// accounting of this (real, non-zero) outage.
	snap := reg.Snapshot(0)
	if got := snap.Counters["cluster_detector_trips_total"]; got != st.Trips {
		t.Fatalf("telemetry trips %d != supervisor trips %d", got, st.Trips)
	}
	if got := snap.Counters["cluster_promotions_total"]; got != st.Promotions {
		t.Fatalf("telemetry promotions %d != supervisor promotions %d", got, st.Promotions)
	}
	if got := snap.Counters["cluster_promotion_failures_total"]; got != st.PromotionFailures {
		t.Fatalf("telemetry promotion failures %d != supervisor %d", got, st.PromotionFailures)
	}
	for _, h := range snap.Histograms {
		if h.Name == "cluster_time_to_recovery" {
			if h.Count != uint64(st.Recoveries) {
				t.Fatalf("telemetry recorded %d recoveries, supervisor counted %d", h.Count, st.Recoveries)
			}
			if mean := time.Duration(h.SumNS / int64(h.Count)); mean != st.MeanTimeToRecovery {
				t.Fatalf("telemetry mean time-to-recovery %v != supervisor %v", mean, st.MeanTimeToRecovery)
			}
		}
	}
}
