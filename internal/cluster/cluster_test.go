package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// rootHarness is the in-process standby-root setup: partitions behind
// delivery windows that survive the root, a shared journal directory, and
// a factory for root incarnations.
type rootHarness struct {
	t    *testing.T
	subs []*transport.Window
	dir  string
}

func newRootHarness(t *testing.T, S int) *rootHarness {
	h := &rootHarness{t: t, dir: t.TempDir()}
	for i := 0; i < S; i++ {
		h.subs = append(h.subs, transport.NewWindow(suboram.New(suboram.Config{BlockSize: 32})))
	}
	return h
}

func (h *rootHarness) newRoot() (*core.System, error) {
	clients := make([]core.SubORAMClient, len(h.subs))
	for i := range h.subs {
		clients[i] = h.subs[i]
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

// promoteOver returns a promotion that closes the dead root and opens a
// standby over the same journal directory.
func (h *rootHarness) promoteOver() RootPromoteFunc {
	return func(old *core.System) (*core.System, error) {
		if old != nil {
			old.Close()
		}
		return h.newRoot()
	}
}

// awaitPromotion polls until the supervisor serves a root other than dead.
func awaitPromotion(t *testing.T, sup *Supervisor, dead *core.System) *core.System {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur := sup.Root(); cur != nil && cur != dead && !sup.RootDown() {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never promoted: %v", sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRootPromotionOnTrip feeds the root's liveness by hand: the detector
// trips on exactly the FailAfter-th consecutive miss (a healthy observation
// resets the run), the supervisor promotes a standby over the same journal
// directory, and the outage is accounted in Stats and telemetry alike.
func TestRootPromotionOnTrip(t *testing.T) {
	h := newRootHarness(t, 2)
	r1 := h.mustRoot()
	if err := r1.Init([]uint64{1, 2, 3}, make([]byte, 3*32)); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	sup := NewSupervisor(Policy{FailAfter: 2})
	sup.Instrument(reg)
	defer sup.Close()
	sup.SuperviseRoot(r1, h.promoteOver())

	sup.ObserveRootHealth(false)
	sup.ObserveRootHealth(true)
	sup.ObserveRootHealth(false)
	if sup.RootDown() || sup.Stats().RootTrips != 0 {
		t.Fatalf("tripped without %d consecutive misses: %v", 2, sup.Stats())
	}
	r1.Crash()
	sup.ObserveRootHealth(!r1.Crashed())
	if !sup.RootDown() || sup.Stats().RootTrips != 1 {
		t.Fatalf("second consecutive miss did not trip: %v", sup.Stats())
	}
	p := awaitPromotion(t, sup, r1)
	defer p.Close()

	st := sup.Stats()
	if st.RootTrips != 1 || st.RootPromotions != 1 || st.RootPromotionFailures != 0 || st.RootRecoveries != 1 {
		t.Fatalf("root accounting: %v", st)
	}
	if st.RootMeanTimeToRecovery <= 0 || st.RootMaxTimeToRecovery < st.RootMeanTimeToRecovery {
		t.Fatalf("time-to-recovery not measured: %v", st)
	}
	for _, want := range []string{"root_trips=1", "root_promotions=1", "root_promotion_failures=0"} {
		if !strings.Contains(st.String(), want) {
			t.Fatalf("Stats.String() %q missing %q", st.String(), want)
		}
	}
	snap := reg.Snapshot(0)
	if got := snap.Counters["cluster_root_trips_total"]; got != 1 {
		t.Fatalf("cluster_root_trips_total = %d, want 1", got)
	}
	if got := snap.Counters["cluster_root_promotions_total"]; got != 1 {
		t.Fatalf("cluster_root_promotions_total = %d, want 1", got)
	}
	for _, hs := range snap.Histograms {
		if hs.Name == "cluster_root_time_to_recovery" && hs.Count != 1 {
			t.Fatalf("cluster_root_time_to_recovery count = %d, want 1", hs.Count)
		}
	}
	// The promoted root serves.
	wait, err := p.Submit(core.Request{Op: store.OpRead, Key: 1, ID: 99})
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
	sup := NewSupervisor(Policy{FailAfter: 1, ProbeInterval: time.Millisecond})
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

	defer awaitPromotion(t, sup, r1).Close()
	st := sup.Stats()
	if st.RootTrips != 1 || st.RootPromotionFailures != 2 || st.RootPromotions != 1 {
		t.Fatalf("retry accounting: %v", st)
	}
}

// TestRootPromotionWatchRoot drives the whole loop through WatchRoot's own
// probes: crash the root, let the probe loop trip the detector, and serve
// from the promoted standby.
func TestRootPromotionWatchRoot(t *testing.T) {
	h := newRootHarness(t, 2)
	r1 := h.mustRoot()
	sup := NewSupervisor(Policy{FailAfter: 2, ProbeInterval: 5 * time.Millisecond})
	defer sup.Close()
	sup.SuperviseRoot(r1, h.promoteOver())
	sup.WatchRoot(func(sys *core.System, _ time.Duration) error {
		if sys == nil || sys.Crashed() {
			return errors.New("root dead")
		}
		return nil
	})

	r1.Crash()
	defer awaitPromotion(t, sup, r1).Close()
	if st := sup.Stats(); st.RootTrips != 1 || st.RootPromotions != 1 {
		t.Fatalf("probe-driven promotion: %v", st)
	}
}
