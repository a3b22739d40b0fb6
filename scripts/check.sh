#!/usr/bin/env bash
# Pre-commit check: vet the whole module, then race-test the subsystems with
# the trickiest concurrency surface — persistence, replication, transport,
# failure detection/failover, the seeded partition chaos harness, the pooled
# data plane (arena recycling across the epochs in flight in core, and the
# pooled hot paths in loadbalancer/ohash), the oblivious sort/merge
# primitives under parallel sorting (obliv), the trace leakage suite with
# parallel workers, and the fault-tolerant root plane (epoch journal,
# standby promotion, the exactly-once crash × fate table), plus 20 s of
# fuzzing the journal's epoch codec. The full suite is `go test ./...`; the
# long multi-seed chaos soak is scripts/chaos.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
# -race slows the branch-free oblivious scans ~20x; the core package alone
# needs well over go test's default 10m, hence the explicit timeout.
go test -race -timeout 45m \
  ./internal/hostfs/... \
  ./internal/persist/... \
  ./internal/segstore/... \
  ./internal/replica/... \
  ./internal/transport/... \
  ./internal/faultnet/... \
  ./internal/arena/... \
  ./internal/core/... \
  ./internal/cluster/... \
  ./internal/chaos/... \
  ./internal/loadbalancer/... \
  ./internal/obliv/... \
  ./internal/trace/... \
  ./internal/telemetry/... \
  ./internal/metrics/...

# The open-loop traffic harness under -race: the scenario-matrix soak, the
# coordinated-omission regression test, and the workload-independence soak
# (byte-identical telemetry across secret-differing key patterns). -short
# skips only the real-time Eq. 1 cross-validation knee search, which
# measures wall-clock capacity and is meaningless under the race detector's
# ~20x slowdown; it runs in the plain `go test ./...` tier instead.
go test -race -short -timeout 15m ./internal/loadgen/ ./internal/workload/

# The tests that used to flake on a loaded host, repeated unpinned: the
# faultnet pass-through offset check (now waits for its writer), the knee
# search (from 1/8 of the fake's capacity it must bracket it within 10 %,
# and from twice capacity it must find no knee), and the seeded
# chaos runs beside two busy-loop burners (the replica group waits for a
# quorum, not a reply deadline, so CPU load cannot change an outcome).
go test -count=5 -run 'TestNoFaultsPassThrough' ./internal/faultnet/
go test -count=5 -run 'TestFindKneeLocatesCapacity' ./internal/loadgen/
(while :; do :; done) & burn1=$!
(while :; do :; done) & burn2=$!
trap 'kill $burn1 $burn2 2>/dev/null' EXIT
go test -count=20 -run TestChaosSeededRuns ./internal/chaos/
kill $burn1 $burn2
trap - EXIT

# End-to-end smoke of the TCP traffic path: boots a real loopback cluster
# of snoopy-server processes and drives 10^5 open-loop sessions through it.
scripts/traffic.sh smoke

# Focused re-run of the epoch engine's highest-risk surface: the
# Flush/Close/stats soak at depth 4 with a faultnet-stalled partition
# mid-drain, the Flush/Close liveness test at depth 1, arena isolation
# across epochs in flight, the zero-alloc stage-B dispatch, and the leakage
# suite at depth 4 (PipelineDepth: 4). These run above as part of their
# packages; re-running them -count=2 shakes out schedule-dependent
# interleavings the single pass can miss.
go test -race -timeout 15m -count=2 \
  -run 'TestPipelinedSoakWithStalledRemote|TestFlushBlockedOnDepthUnblocksOnClose|TestPipelinedEpochsArenaIsolation|TestPartStageBZeroAlloc' \
  ./internal/core/
go test -race -timeout 15m -count=2 \
  -run 'TestTelemetryTraceIndependentOfSecretsPipelined' \
  ./internal/trace/

# Focused re-run of the fault-tolerant root plane: journal append/replay,
# the exactly-once table (every crash point × every partition fate at depth
# 1 and 4 — TestJournal matches it, and the "dispatch" crash with epochs in
# flight behind it; a journal open under another shape), every client wait
# resolving on a crash, an ACL resolution failing closed, in core,
# standby-root promotion in cluster, and the journal/standby leakage tests.
# Schedule-sensitive by construction (promotion races a probing watchdog),
# so shake them with -count=2 as well.
go test -race -timeout 15m -count=2 \
  -run 'TestJournal|TestCrashKillSwitch|TestCrashResolvesEveryWait|TestACLResolutionFailsClosed|TestRootPromotion' \
  ./internal/core/ ./internal/cluster/
go test -race -timeout 15m -count=2 \
  -run 'TestJournalTrace' \
  ./internal/trace/

# Focused re-run of the sort-then-distribute construction: obliv.Distribute
# against its scatter reference (exhaustive, quick, fuzz seeds, trace), the
# byte-for-byte differentials against the pad-and-sort reference kept in
# the test files, the overflow edges (α / α+1 keys into one subORAM, Z1 /
# Z1+1, C2 / C2+1, Z2 / Z2+1), the cost functions against recorded traces,
# and the zero-alloc guard over varying batch sizes.
go test -race -timeout 15m -count=2 \
  -run 'Distribute|CompactCost|PadAndSortReference|Boundar|Cost.*Count|ZeroAllocAcrossBatchSizes' \
  ./internal/obliv/ ./internal/ohash/ ./internal/loadbalancer/

# Focused re-run of the scan kernel on every body this host has (portable,
# AVX2, AVX-512VL — which one production dispatches to is printed first):
# obliv.Buckets.Scan against its slot-major reference (table, any mask
# words, every lane split, quick, fuzz seeds) and the whole-scan
# differentials and trace comparison in suboram (plain, sealed, store,
# Workers > 1 — the worker fan-out is the part -race is for), and the sealed
# placement's tamper, replay and two-worker tests over host memory.
go test -run 'KernelIsTheWidestBody' -v ./internal/obliv/ | grep 'bodies on this host'
go test -race -timeout 15m -count=2 \
  -run 'ScanMatchesSlotMajor|ExchangeMatches|KeyPassEveryLaneSplit|ScanQuick|FuzzFusedBucket|SlotMajorReference|ZeroAllocSteadyState|Sealed' \
  ./internal/obliv/ ./internal/suboram/

# Focused re-run of merge-based response matching: MatchResponses against
# the sort-based reference kept in the test files (size edges, every traffic
# shape, key / table / per-partition order, degraded epochs, real subORAMs
# under pinned and fresh keys, a request subset), Extract against the
# copy-then-compact reference in table order (crafted tier-2 and bucket
# edges, quick, fuzz seeds), both traces as functions of public shape, the
# narrow metadata sort and the order stamp in store, the replica digest
# across table keys, and the misshapen-response failure path in core.
go test -race -timeout 15m -count=2 \
  -run 'MatchResponses|Extract|MetaBySubKey|OrderStamp|BySubKeyTag|DigestAgreesAcrossTableKeys|MisshapenResponse|ShardsInFullSystem' \
  ./internal/loadbalancer/ ./internal/ohash/ ./internal/store/ ./internal/replica/ ./internal/core/ ./internal/oblix/

# The hash table's shape (ohash.GeometryFor): the whole ohash package under
# -race, then a focused -count=2 re-run of the geometry, bound and overflow
# tests — the sweep of both computed 2^-λ bounds, the Monte-Carlo overflow
# rates with their under-sized negative control, the Z1/Z1+1 · C2/C2+1 ·
# Z2/Z2+1 pins derived from GeometryFor, the legacy-vs-new system
# differential in suboram and the planner pricing the same table. -short
# thins the sweep's batch sizes (the race detector adds nothing to pure
# arithmetic); the last line runs the sweep and the Monte Carlo at full size
# — every batch size's bounds re-derived, 10⁶ builds per shape — without it.
go test -race -short -timeout 15m ./internal/ohash/...
go test -race -short -timeout 15m -count=2 \
  -run 'Geometry|Bound|Overflow' \
  ./internal/ohash/ ./internal/suboram/ ./internal/planner/
go test -timeout 15m -run 'GeometryBoundsSweep|OverflowRateWithinBound' ./internal/ohash/ -exhaustive

# The durable path's crash-point enumeration under -race: every write, sync,
# truncate, rename and directory sync of every sealed file of Durable — in
# the memory and the disk placement, the image's segment slots, data file,
# registry and identifier set included — and of Journal fails (and tears) in
# turn, every synced prefix is replayed as a rollback, FuzzSealedState's
# seeds mangle the rest, and one recovery rule is checked against what a
# crash leaves of an unanswered batch. The memory placement writes its log
# record on a second goroutine while the partition scans — the part -race is
# for. Then the files nothing on a linux/amd64 host otherwise compiles:
# hostfs's portable sync fallback and the scan kernel's stubs in
# obliv/simd_generic.go.
go test -race -timeout 15m -count=2 \
  -run 'CrashPoints|RollbackPrefixes|FuzzSealedState|TwoSyncsNoAllocs|CounterSlots|Recovery' \
  ./internal/persist/
# The journal's epoch codec, fuzzed: decoding never panics, and a payload
# that decodes re-encodes byte for byte.
go test -run '^$' -fuzz FuzzJournalEpochDecode -fuzztime 20s ./internal/persist/
GOOS=darwin GOARCH=arm64 go build ./...

# The portable bodies (the purego tag drops every assembly kernel, as a
# non-amd64 build does): the amd64 host otherwise never runs them. This
# covers the table-order Extract and the miss zeroing behind it too, the
# kernels at every bucket size the geometry grid can pick (Z ≤ 128), and
# the portable row kernels under the networks' per-pair differential and
# the load-balancer suites.
go vet -tags purego ./internal/obliv/
go test -tags purego ./internal/obliv/ ./internal/suboram/ ./internal/ohash/ ./internal/store/ ./internal/loadbalancer/

# The leakage suite's canonical exports must not depend on how many
# threads record spans: run it serial, at two and at four — and with it the
# all-bodies kernel and whole-scan differentials, whose Workers > 1 modes
# split the partition by that count.
for procs in 1 2 4; do
  GOMAXPROCS=$procs go test -count=1 ./internal/trace/
  GOMAXPROCS=$procs go test -count=1 \
    -run 'ScanMatchesSlotMajor|ExchangeMatches|KeyPassEveryLaneSplit|SlotMajorReference' \
    ./internal/obliv/ ./internal/suboram/
done

# The benchmark program's own smoke test (a module of its own, so not part
# of `go test ./...`): all four workloads at tiny shapes, every reply
# checked against the reference model. It also compiles bench/layers.go
# against the signatures the ledger depends on (MatchResponses, Batches.For,
# Builder.Build, BatchAccess), so a change to one of them fails here.
(cd bench && go test .)
echo "check.sh: OK"
