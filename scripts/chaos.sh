#!/usr/bin/env bash
# Long chaos soak — deliberately outside the tier-1 time budget.
#
# Part 1 runs the seeded partition chaos harness (internal/chaos) across
# many seeds with long fault phases under -race: scripted
# kill/stall/rollback/restart schedules against replicated partitions. Every
# client history goes through the linearizability checker, and the cluster
# must be back to full health within K epochs of the last fault. A failing
# seed is printed in the test output; replaying it reproduces the identical
# fault schedule. (Root crashes need no soak: TestJournalExactlyOnce in
# internal/core enumerates every crash point, and scripts/check.sh runs it.)
#
# Part 2 exercises the real process boundary: it builds snoopy-server,
# kills it with SIGKILL mid-deployment, restarts it on the same sealed data
# directory, and verifies acknowledged state survives and tampered state is
# refused — plus the in-process crash-recovery soak.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== seeded chaos soak (16 seeds, -race) =="
SNOOPY_CHAOS_SOAK=1 go test -race -timeout 120m -run 'TestChaosSoak' -v ./internal/chaos/

echo "== kill -9 + restart and crash-recovery soak =="
go test -timeout 30m -run 'TestServerSurvivesKill9|TestCrashRecoverySoak' -v .

echo "chaos.sh: OK"
