#!/usr/bin/env bash
# Data-plane benchmark harness. Runs the hot-path benchmarks (batch
# formation, response matching, wire codec, end-to-end epochs) with
# -benchmem and emits results/BENCH_dataplane.json with ns/op, B/op and
# allocs/op per benchmark. Compare against
# results/BENCH_dataplane_baseline.json (recorded before the pooled-arena
# refactor) to see the allocation reduction.
#
# Usage: scripts/bench.sh [benchtime]   (default 2x)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
FILTER='BenchmarkLoadBalancerMakeBatch|BenchmarkLoadBalancerMatchResponses|BenchmarkWireCodec|BenchmarkSnoopyEndToEnd|BenchmarkPipelinedEpochs'
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

mkdir -p results
awk '
BEGIN { print "{"; print "  \"benchmarks\": ["; first = 1 }
/^Benchmark/ {
    name = $1; ns = ""; bop = ""; aop = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns  = $(i-1)
        if ($(i) == "B/op")      bop = $(i-1)
        if ($(i) == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", \
        name, ns, (bop == "" ? "null" : bop), (aop == "" ? "null" : aop)
}
END { print "\n  ]"; print "}" }
' "$RAW" > results/BENCH_dataplane.json

echo "wrote results/BENCH_dataplane.json"

# Pipelined vs synchronous epoch throughput (BenchmarkPipelinedEpochs at
# depths 1/2/4 plus the default). A dedicated -count=5 run, taking the
# minimum ns/op per configuration — min-of-N is the low-noise estimator on
# a shared box. Emits results/BENCH_pipeline.json and FAILS the bench if
# the pipelined engine regresses below the synchronous one beyond a 3%
# scheduler-noise guard band: on a single-core host overlapped execution
# can at best tie synchronous (there is no second core to absorb the
# overlapped stages), so the gate's job is to catch genuine pessimization
# — the pre-fix engine was 12.5% slower pipelined — not coin-flip noise.
RAWP="$(mktemp)"
trap 'rm -f "$RAW" "$RAWP"' EXIT
go test -run '^$' -bench 'BenchmarkPipelinedEpochs' -benchtime "$BENCHTIME" -count=5 . | tee "$RAWP"

awk '
/^BenchmarkPipelinedEpochs\// {
    ns = ""
    for (i = 2; i <= NF; i++) if ($(i) == "ns/op") ns = $(i-1)
    if (ns == "") next
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix, if any
    if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
}
END {
    sync = best["BenchmarkPipelinedEpochs/pipeline=false"]
    pipe = best["BenchmarkPipelinedEpochs/pipeline=true"]
    if (sync == "" || pipe == "") {
        print "BENCH_pipeline: missing pipeline=false/true results" > "/dev/stderr"
        exit 1
    }
    n = 0
    for (name in best)
        if (match(name, /depth=[0-9]+$/)) {
            d = substr(name, RSTART + 6, RLENGTH - 6) + 0
            order[++n] = d
            depths[d] = best[name]
        }
    # insertion sort: a handful of depths
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && order[j] < order[j-1]; j--) {
            t = order[j]; order[j] = order[j-1]; order[j-1] = t
        }
    printf "{\n"
    printf "  \"samples\": 5,\n"
    printf "  \"estimator\": \"min\",\n"
    printf "  \"synchronous_ns_op\": %s,\n", sync
    printf "  \"pipelined_ns_op\": %s,\n", pipe
    printf "  \"pipelined_speedup\": %.4f,\n", sync / pipe
    printf "  \"by_depth\": {"
    for (i = 1; i <= n; i++)
        printf "%s\"%s\": %s", (i > 1 ? ", " : ""), order[i], depths[order[i]]
    printf "}\n}\n"
    if (pipe + 0 > sync * 1.03) {
        printf "BENCH_pipeline: pipelined (%s ns/op) regresses below synchronous (%s ns/op)\n", pipe, sync > "/dev/stderr"
        exit 1
    }
}
' "$RAWP" > results/BENCH_pipeline.json

echo "wrote results/BENCH_pipeline.json"

# Open-loop traffic harness (in-process deployment, fixed small shape so
# the numbers are machine-comparable): the full scenario suite at the
# reference load, then the knee sweep vs the calibrated Eq. 1-2 / simnet
# prediction. Emits results/BENCH_traffic.json and FAILS if p99 at the
# reference load regresses >10% against the committed baseline
# (results/BENCH_traffic_baseline.json) — the latency there is dominated
# by the public epoch quantum, so the gate is stable across hosts. The
# TCP-cluster variant of the same harness is scripts/traffic.sh.
go run ./cmd/snoopy-bench -traffic results/BENCH_traffic.json \
  -sessions 100000 -rate 1500 -duration 1200ms -epoch 25ms \
  -objects 1024 -block 64 -lbs 1 -suborams 2 \
  -baseline results/BENCH_traffic_baseline.json
echo "wrote results/BENCH_traffic.json"
