package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// rootHarness is the in-process standby-root setup: partitions with
// replay caches that survive the root, a shared journal directory, and a
// factory for root incarnations.
type rootHarness struct {
	t    *testing.T
	subs []*suboram.SubORAM
	rcs  []*transport.ReplayCache
	dir  string
}

func newRootHarness(t *testing.T, S int) *rootHarness {
	h := &rootHarness{t: t, dir: t.TempDir()}
	for i := 0; i < S; i++ {
		h.subs = append(h.subs, suboram.New(suboram.Config{BlockSize: 32}))
		h.rcs = append(h.rcs, transport.NewReplayCache())
	}
	return h
}

func (h *rootHarness) newRoot() (*core.System, error) {
	clients := make([]core.SubORAMClient, len(h.subs))
	for i := range h.subs {
		clients[i] = transport.NewLocalTagged(h.subs[i], h.rcs[i])
	}
	return core.NewWithSubORAMs(core.Config{
		BlockSize: 32, Lambda: 32, JournalDir: h.dir,
	}, clients)
}

func (h *rootHarness) mustRoot() *core.System {
	sys, err := h.newRoot()
	if err != nil {
		h.t.Fatal(err)
	}
	return sys
}

// TestRootPromotionOnTrip drives the full loop: crash the root, let the
// detector trip on consecutive misses, and verify the supervisor promotes
// a standby over the same journal directory with recovery accounting.
func TestRootPromotionOnTrip(t *testing.T) {
	h := newRootHarness(t, 2)
	r1 := h.mustRoot()
	ids := []uint64{1, 2, 3}
	if err := r1.Init(ids, make([]byte, 3*32)); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var promoted *core.System
	sup := NewSupervisor(2, nil, Policy{FailAfter: 2, ProbeInterval: time.Millisecond})
	sup.Instrument(reg)
	defer sup.Close()
	sup.SuperviseRoot(r1, func(old *core.System) (*core.System, error) {
		if old != nil {
			old.Close()
		}
		sys, err := h.newRoot()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		promoted = sys
		mu.Unlock()
		return sys, nil
	})
	sup.WatchRoot(func(sys *core.System, _ time.Duration) error {
		if sys == nil || sys.Crashed() {
			return errors.New("root dead")
		}
		return nil
	})

	if sup.RootDown() {
		t.Fatal("root declared down while healthy")
	}
	r1.Crash()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur := sup.Root(); cur != nil && cur != r1 && !sup.RootDown() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never promoted: %v", sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	p := promoted
	mu.Unlock()
	defer p.Close()
	if sup.Root() != p {
		t.Fatal("supervisor does not serve the promoted root")
	}

	st := sup.Stats()
	if st.RootTrips != 1 || st.RootPromotions != 1 || st.RootRecoveries != 1 {
		t.Fatalf("root accounting: %v", st)
	}
	if st.RootMeanTimeToRecovery <= 0 || st.RootMaxTimeToRecovery < st.RootMeanTimeToRecovery {
		t.Fatalf("time-to-recovery not measured: %v", st)
	}
	if got := reg.Counter("cluster_root_trips_total").Value(); got != 1 {
		t.Fatalf("cluster_root_trips_total = %d, want 1", got)
	}
	if got := reg.Counter("cluster_root_promotions_total").Value(); got != 1 {
		t.Fatalf("cluster_root_promotions_total = %d, want 1", got)
	}
	// The promoted root serves.
	wait, err := p.ReadIdemAsync(99, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if _, found, err := wait(); err != nil || !found {
		t.Fatalf("promoted root read: found=%v err=%v", found, err)
	}
}

// TestRootPromotionRetries: failed attempts are counted and retried until
// one succeeds.
func TestRootPromotionRetries(t *testing.T) {
	h := newRootHarness(t, 1)
	r1 := h.mustRoot()
	defer r1.Close()

	attempts := 0
	var mu sync.Mutex
	sup := NewSupervisor(1, nil, Policy{FailAfter: 1, ProbeInterval: time.Millisecond})
	defer sup.Close()
	sup.SuperviseRoot(r1, func(old *core.System) (*core.System, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n < 3 {
			return nil, fmt.Errorf("standby %d not ready", n)
		}
		return h.newRoot()
	})
	sup.ObserveRootHealth(false)

	deadline := time.Now().Add(5 * time.Second)
	for sup.RootDown() {
		if time.Now().After(deadline) {
			t.Fatalf("promotion never succeeded: %v", sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	defer sup.Root().Close()
	st := sup.Stats()
	if st.RootPromotionFailures != 2 || st.RootPromotions != 1 {
		t.Fatalf("retry accounting: %v", st)
	}
}

// TestTripPlanesSeparate is the satellite-1 regression: partition trips
// and root trips are separate planes — activity in one must never bleed
// into the other's counters, in Stats or telemetry.
func TestTripPlanesSeparate(t *testing.T) {
	reg := telemetry.NewRegistry()
	sup := NewSupervisor(3, nil, Policy{FailAfter: 2})
	sup.Instrument(reg)
	defer sup.Close()
	sup.SuperviseRoot(nil, nil)

	// Trip the root; partitions stay healthy.
	healthy := core.HealthStats{ConsecutiveFailures: []int{0, 0, 0}}
	for i := 0; i < 3; i++ {
		sup.ObserveHealth(healthy)
		sup.ObserveRootHealth(false)
	}
	st := sup.Stats()
	if st.Trips != 0 {
		t.Fatalf("root failures bled into partition trips: %v", st)
	}
	if st.RootTrips != 1 {
		t.Fatalf("root trip not recorded: %v", st)
	}
	if got := reg.Counter("cluster_detector_trips_total").Value(); got != 0 {
		t.Fatalf("partition trip telemetry = %d, want 0", got)
	}
	if got := reg.Counter("cluster_root_trips_total").Value(); got != 1 {
		t.Fatalf("root trip telemetry = %d, want 1", got)
	}

	// Now trip a partition; the root counter must not move.
	part := core.HealthStats{ConsecutiveFailures: []int{0, 2, 0}}
	for i := 0; i < 3; i++ {
		sup.ObserveHealth(part)
		sup.ObserveRootHealth(true)
	}
	st = sup.Stats()
	if st.Trips != 1 || st.RootTrips != 1 {
		t.Fatalf("trip separation violated: %v", st)
	}
	for _, want := range []string{"root_trips=1", "trips=1", "root_promotions=0"} {
		if !strings.Contains(st.String(), want) {
			t.Fatalf("Stats.String() %q missing %q", st.String(), want)
		}
	}
}
