package chaos

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// checkRootRun asserts the root harness's invariants for one seed: the
// client history is linearizable through every root kill, every tracked
// request was answered exactly once, every crash was matched by exactly
// one supervisor promotion with a measured time-to-recovery, and the
// telemetry export never drifts from the supervisor's own accounting.
func checkRootRun(t *testing.T, cfg RootConfig) *RootResult {
	t.Helper()
	res, err := RunRoot(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if !res.Linearizable {
		t.Fatalf("seed %d: history not linearizable (%d ops, %d retries, events %v)",
			cfg.Seed, res.Ops, res.Retries, res.Events)
	}
	if !res.ExactlyOnce || res.Unanswered != 0 {
		t.Fatalf("seed %d: exactly-once violated (exactlyOnce=%v unanswered=%d, events %v)",
			cfg.Seed, res.ExactlyOnce, res.Unanswered, res.Events)
	}
	if res.Ops == 0 {
		t.Fatalf("seed %d: no operations ran", cfg.Seed)
	}
	st := res.SupStats
	if got, want := st.RootPromotions, uint64(res.RootCrashes); got != want {
		t.Fatalf("seed %d: %d root crashes but %d promotions (%v)",
			cfg.Seed, res.RootCrashes, got, st)
	}
	if res.RootCrashes > 0 {
		if st.RootTrips == 0 || st.RootRecoveries == 0 {
			t.Fatalf("seed %d: crashes not accounted: %v", cfg.Seed, st)
		}
		if st.RootMeanTimeToRecovery <= 0 || st.RootMaxTimeToRecovery < st.RootMeanTimeToRecovery {
			t.Fatalf("seed %d: time-to-recovery not measured: %v", cfg.Seed, st)
		}
	}
	checkRootTelemetryAccounting(t, cfg.Seed, res)
	return res
}

// checkRootTelemetryAccounting is the root-plane analogue of
// checkTelemetryAccounting: the registry's root counters must match the
// supervisor's Stats exactly.
func checkRootTelemetryAccounting(t *testing.T, seed int64, res *RootResult) {
	t.Helper()
	c := res.Telemetry.Counters
	if got, want := c["cluster_root_trips_total"], res.SupStats.RootTrips; got != want {
		t.Fatalf("seed %d: telemetry reports %d root trips, supervisor counted %d", seed, got, want)
	}
	if got, want := c["cluster_root_promotions_total"], res.SupStats.RootPromotions; got != want {
		t.Fatalf("seed %d: telemetry reports %d root promotions, supervisor counted %d", seed, got, want)
	}
	if got, want := c["cluster_root_promotion_failures_total"], res.SupStats.RootPromotionFailures; got != want {
		t.Fatalf("seed %d: telemetry reports %d root promotion failures, supervisor counted %d", seed, got, want)
	}
	var recoveries uint64
	for _, h := range res.Telemetry.Histograms {
		if h.Name == "cluster_root_time_to_recovery" {
			recoveries = h.Count
		}
	}
	if got, want := recoveries, uint64(res.SupStats.RootRecoveries); got != want {
		t.Fatalf("seed %d: telemetry recorded %d root recoveries, supervisor counted %d", seed, got, want)
	}
}

// TestRootChaosSeededRuns drives a few fixed seeds through the seeded
// schedule of root kills and partition outages.
func TestRootChaosSeededRuns(t *testing.T) {
	atDepths(t, func(t *testing.T, depth int) {
		for _, seed := range []int64{1, 2, 3} {
			res := checkRootRun(t, RootConfig{Seed: seed, Dir: t.TempDir(), Log: t.Logf, depth: depth})
			t.Logf("seed %d: ops=%d retries=%d failed_attempts=%d dups=%d crashes=%d events=%d ttr=%v",
				seed, res.Ops, res.Retries, res.FailedAttempts, res.Duplicates,
				res.RootCrashes, len(res.Events), res.SupStats.RootMeanTimeToRecovery)
		}
	})
}

// atDepths runs f with one epoch at a time and with four in flight: the
// root's crash points must hold at every depth.
func atDepths(t *testing.T, f func(t *testing.T, depth int)) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) { f(t, depth) })
	}
}

// TestRootChaosCrashEveryPoint pins one crash to each of the three
// journal-protocol crash sites, so every recovery path (retry-fresh,
// replay-before-dispatch, replay-after-dispatch) is exercised
// deterministically regardless of the seeded draw.
func TestRootChaosCrashEveryPoint(t *testing.T) {
	atDepths(t, func(t *testing.T, depth int) {
		res := checkRootRun(t, RootConfig{
			Seed:   7,
			Dir:    t.TempDir(),
			Epochs: 8,
			Crashes: map[int]string{
				2: "stage-a",
				4: "journal",
				6: "dispatch",
			},
			Log:   t.Logf,
			depth: depth,
		})
		if res.RootCrashes < 3 {
			t.Fatalf("pinned crashes did not fire: %d crashes, events %v", res.RootCrashes, res.Events)
		}
		if res.Retries == 0 {
			t.Fatal("crashes produced no client retries")
		}
	})
}

// TestRootChaosScheduleDeterministic: the same seed over the same
// journal directory must produce the identical event schedule and
// outcome counters (only wall-clock derived stats may differ). The
// directory matters because the oblivious routing key is sealed into it:
// a different dir routes keys to different partitions, changing which
// requests a partition outage fails.
func TestRootChaosScheduleDeterministic(t *testing.T) {
	atDepths(t, func(t *testing.T, depth int) {
		dir := t.TempDir()
		run := func() *RootResult {
			res, err := RunRoot(RootConfig{Seed: 11, Dir: dir, depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if len(a.Events) != len(b.Events) {
			t.Fatalf("event counts differ: %d vs %d\n%v\n%v", len(a.Events), len(b.Events), a.Events, b.Events)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
			}
		}
		if a.Ops != b.Ops || a.Retries != b.Retries || a.Duplicates != b.Duplicates ||
			a.RootCrashes != b.RootCrashes || a.FailedAttempts != b.FailedAttempts {
			t.Fatalf("outcome counters differ:\n%+v\n%+v", a, b)
		}
	})
}

// TestRootChaosSoak is the long-running root-failover soak (~16 seeds),
// the acceptance gate for the failover plane: every client history
// linearizable, every request answered exactly once, every crash matched
// by a promotion with measured time-to-recovery. Off by default; enable
// with SNOOPY_CHAOS_SOAK=1 (scripts/chaos.sh runs it).
func TestRootChaosSoak(t *testing.T) {
	if os.Getenv("SNOOPY_CHAOS_SOAK") == "" {
		t.Skip("set SNOOPY_CHAOS_SOAK=1 to run the root-failover soak")
	}
	crashes, start := 0, time.Now()
	for seed := int64(1); seed <= 16; seed++ {
		res := checkRootRun(t, RootConfig{Seed: seed, Dir: t.TempDir(), Epochs: 16})
		crashes += res.RootCrashes
	}
	if crashes == 0 {
		t.Fatal("soak schedule produced no root crashes across all seeds")
	}
	t.Logf("16 seeds, %d root crashes in %v", crashes, time.Since(start))
}
