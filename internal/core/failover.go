// Partition failover: the one partition failure detector (the epoch is
// the heartbeat), the repair that swaps in a replacement client, and the
// health counters operators read.
package core

import "time"

// failoverAfter is the consecutive-failed-epoch run that trips failover, the
// same threshold as the root's liveness probe (cluster.Policy).
const failoverAfter = 3

// FailoverFunc produces a replacement client for a partition whose
// consecutive-failure run tripped the detector (failoverAfter).
type FailoverFunc func(part int, old SubORAMClient) (SubORAMClient, error)

// HealthStats reports per-partition failure state, so operators (and the
// replication layer) can tell a transient blip from a dead partition.
type HealthStats struct {
	// ConsecutiveFailures[s] is the current run of epochs in which
	// partition s failed; it resets to zero on the first success.
	ConsecutiveFailures []int
	// TotalFailures[s] counts every epoch in which partition s failed.
	TotalFailures []uint64
	// Failovers[s] counts replacements promoted for partition s
	// (Config.Failover successes).
	Failovers []uint64
	// Repairing[s] reports a failover attempt currently in flight.
	Repairing []bool
	// JournalErrors counts completed epochs whose journal completion
	// (marker append or compaction) failed. The epoch was answered; the
	// cost is a redundant replay by a successor — and a journal that keeps
	// failing will fail the next epoch's Begin.
	JournalErrors uint64
}

// Healthy reports whether every partition is currently serving: no
// consecutive-failure run and no repair in flight. The chaos harness's
// convergence invariant checks this.
func (h HealthStats) Healthy() bool {
	for _, c := range h.ConsecutiveFailures {
		if c != 0 {
			return false
		}
	}
	for _, r := range h.Repairing {
		if r {
			return false
		}
	}
	return true
}

// detect is the system's one partition failure detector: the epoch is the
// heartbeat, and a partition whose consecutive-failure run reaches
// failoverAfter trips automatic failover — one repair attempt at a
// time, retried each further failing epoch until a replacement is promoted.
// Runs on the sequencer, in epoch order.
func (sys *System) detect(job *epochJob) {
	sys.statsMu.Lock()
	for s := range job.subErr {
		if job.subErr[s] != nil {
			if sys.health.ConsecutiveFailures[s] == 0 {
				sys.downSince[s] = sys.cfg.Telemetry.Now()
			}
			sys.health.ConsecutiveFailures[s]++
			sys.health.TotalFailures[s]++
			sys.telPartFails.Inc()
			if sys.cfg.Failover != nil &&
				sys.health.ConsecutiveFailures[s] >= failoverAfter &&
				!sys.health.Repairing[s] {
				sys.health.Repairing[s] = true
				sys.telRepairs.Inc()
				sys.repairWG.Add(1)
				go sys.repair(s, job.subUsed[s])
			}
		} else {
			sys.health.ConsecutiveFailures[s] = 0
		}
	}
	sys.statsMu.Unlock()
}

// repair runs one failover attempt for partition s. On success the
// replacement client serves the partition from the next dispatched epoch;
// on failure the Repairing flag clears so a later failing epoch retries.
func (sys *System) repair(s int, old SubORAMClient) {
	defer sys.repairWG.Done()
	repl, err := sys.cfg.Failover(s, old)
	if err != nil || repl == nil {
		sys.statsMu.Lock()
		sys.health.Repairing[s] = false
		sys.statsMu.Unlock()
		return
	}
	sys.subsMu.Lock()
	sys.subs[s] = repl
	sys.subsMu.Unlock()
	sys.statsMu.Lock()
	sys.telFailovers.Inc()
	sys.telRecovery.Observe(time.Duration(sys.cfg.Telemetry.Now() - sys.downSince[s]))
	sys.health.ConsecutiveFailures[s] = 0
	sys.health.Failovers[s]++
	sys.health.Repairing[s] = false
	sys.statsMu.Unlock()
}

// Health returns per-partition failure counters. A partition with a
// growing ConsecutiveFailures run is down (its requests fail with a
// partition-tagged error each epoch while the rest of the system keeps
// serving); the paper's answer at that point is replication
// (internal/replica) or operator intervention.
func (sys *System) Health() HealthStats {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return HealthStats{
		ConsecutiveFailures: append([]int(nil), sys.health.ConsecutiveFailures...),
		TotalFailures:       append([]uint64(nil), sys.health.TotalFailures...),
		Failovers:           append([]uint64(nil), sys.health.Failovers...),
		Repairing:           append([]bool(nil), sys.health.Repairing...),
		JournalErrors:       sys.health.JournalErrors,
	}
}
