#!/usr/bin/env bash
# Long chaos soak — deliberately outside the tier-1 time budget.
#
# Part 1 runs the seeded chaos harnesses (internal/chaos) across many seeds
# with long fault phases under -race: scripted kill/stall/rollback/restart
# schedules against replicated partitions, plus the root-failover harness
# that kills the root load balancer at journal crash points (stage-a /
# journal / dispatch) and kills partitions mid-epoch, promoting a standby root
# that replays the sealed epoch journal. Every client history goes through
# the linearizability checker, every tracked request must be answered
# exactly once, and the cluster must be back to full health within K epochs
# of the last fault. A failing seed is printed in the test output;
# replaying it reproduces the identical fault schedule.
#
# Part 2 exercises the real process boundary: it builds snoopy-server,
# kills it with SIGKILL mid-deployment, restarts it on the same sealed data
# directory, and verifies acknowledged state survives and tampered state is
# refused — plus the in-process crash-recovery soak.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== seeded chaos soaks (16 seeds each, -race) =="
SNOOPY_CHAOS_SOAK=1 go test -race -timeout 120m -run 'TestChaosSoak|TestRootChaosSoak' -v ./internal/chaos/

echo "== kill -9 + restart and crash-recovery soak =="
go test -timeout 30m -run 'TestServerSurvivesKill9|TestCrashRecoverySoak' -v .

echo "chaos.sh: OK"
