package chaos

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// checkRun asserts the harness's invariants for one seed: every operation
// is answered (every fault stays within its group's budget), the client
// history is linearizable through every fault, and the cluster converges
// back to fully healthy within the K-epoch budget after the last fault.
func checkRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if res.FailedOps != 0 {
		t.Fatalf("seed %d: %d of %d operations failed within budget (events %v, groups %+v)",
			cfg.Seed, res.FailedOps, res.Ops, res.Events, res.GroupStats)
	}
	if !res.Linearizable {
		t.Fatalf("seed %d: history not linearizable (%d ops, %d failed, events %v)",
			cfg.Seed, res.Ops, res.FailedOps, res.Events)
	}
	if res.ConvergedAfter < 0 {
		t.Fatalf("seed %d: cluster never converged within K epochs of the last fault: health=%+v groups=%+v",
			cfg.Seed, res.Health, res.GroupStats)
	}
	if res.Ops == 0 {
		t.Fatalf("seed %d: no operations ran", cfg.Seed)
	}
	checkTelemetryAccounting(t, cfg.Seed, res)
	return res
}

// checkTelemetryAccounting asserts that the telemetry registry's
// replication and failover counters match, exactly, the accounting the
// components keep for themselves (replica.GroupStats, core.HealthStats).
// Telemetry is an export path over the same events — any drift means a
// recording site was added, dropped, or double-fired.
func checkTelemetryAccounting(t *testing.T, seed int64, res *Result) {
	t.Helper()
	c := res.Telemetry.Counters

	var stale, resyncs, resyncBytes uint64
	for _, g := range res.GroupStats {
		stale += g.StaleReplies
		resyncs += g.Resyncs
		resyncBytes += g.ResyncBytes
	}
	for name, want := range map[string]uint64{
		"replica_stale_replies_total": stale,
		"replica_resyncs_total":       resyncs,
		"replica_resync_bytes_total":  resyncBytes,
	} {
		if got := c[name]; got != want {
			t.Fatalf("seed %d: telemetry %s=%d, group stats say %d (groups=%+v)",
				seed, name, got, want, res.GroupStats)
		}
	}

	var partFails uint64
	for _, n := range res.Health.TotalFailures {
		partFails += n
	}
	if got := c["core_partition_epoch_failures_total"]; got != partFails {
		t.Fatalf("seed %d: telemetry counted %d partition epoch failures, core counted %d",
			seed, got, partFails)
	}
	var failovers uint64
	for _, n := range res.Health.Failovers {
		failovers += n
	}
	if got := c["core_failovers_total"]; got != failovers {
		t.Fatalf("seed %d: telemetry counted %d failovers, core counted %d", seed, got, failovers)
	}
}

func TestChaosSeededRuns(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		res := checkRun(t, Config{Seed: seed, Log: t.Logf})
		if len(res.Events) == 0 {
			t.Fatalf("seed %d: schedule produced no fault events", seed)
		}
		t.Logf("seed %d: ops=%d failed=%d events=%d converged_after=%d groups=%+v",
			seed, res.Ops, res.FailedOps, len(res.Events), res.ConvergedAfter, res.GroupStats)
	}
}

// TestChaosSelfHealingObserved picks a seed whose schedule includes
// rollbacks and kills and checks the repair machinery actually engaged: at
// least one stale member was restored from a current one.
func TestChaosSelfHealingObserved(t *testing.T) {
	res := checkRun(t, Config{Seed: 3, Epochs: 32})
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[e.Kind]++
	}
	if kinds["kill"]+kinds["stall"]+kinds["rollback"] == 0 {
		t.Fatalf("no fault events in schedule: %v", res.Events)
	}
	var resyncs uint64
	for _, g := range res.GroupStats {
		resyncs += g.Resyncs
	}
	if resyncs == 0 {
		t.Fatalf("faults ran but no member was restored: events=%v groups=%+v",
			kinds, res.GroupStats)
	}
}

// TestChaosScheduleDeterministic replays a seed and requires the identical
// event schedule and outcome — failed operations, convergence epoch and
// every group's repair counters — serial and on four threads: the property
// that makes a failing seed debuggable. ResyncBytes is left out: partition
// sizes follow core's random routing key.
func TestChaosScheduleDeterministic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, err := Run(Config{Seed: 11, Epochs: 12})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(Config{Seed: 11, Epochs: 12})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Events) != len(b.Events) {
				t.Fatalf("schedules differ in length: %d vs %d", len(a.Events), len(b.Events))
			}
			for i := range a.Events {
				if a.Events[i] != b.Events[i] {
					t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a.Events[i], b.Events[i])
				}
			}
			if outcome(a) != outcome(b) {
				t.Fatalf("outcomes differ:\n%s\n%s", outcome(a), outcome(b))
			}
		})
	}
}

// outcome renders the timing-independent part of a result.
func outcome(r *Result) string {
	s := fmt.Sprintf("failed=%d converged_after=%d", r.FailedOps, r.ConvergedAfter)
	for _, g := range r.GroupStats {
		s += fmt.Sprintf(" [stale=%d resyncs=%d resync_epochs=%d]", g.StaleReplies, g.Resyncs, g.ResyncEpochs)
	}
	return s
}

// TestChaosSoak is the long soak (scripts/chaos.sh): many seeds, longer
// fault phases. Out of the tier-1 budget; gate on SNOOPY_CHAOS_SOAK=1.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("SNOOPY_CHAOS_SOAK") == "" {
		t.Skip("set SNOOPY_CHAOS_SOAK=1 to run the long chaos soak")
	}
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			res := checkRun(t, Config{Seed: seed, Epochs: 64, Parts: 3, OpsPerEpoch: 8, Keys: 32})
			t.Logf("seed %d: ops=%d events=%d %s", seed, res.Ops, len(res.Events), outcome(res))
		})
	}
}
