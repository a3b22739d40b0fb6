// Telemetry leakage tests: the observability layer must not reinstate the
// side channel the store closes. Two full deployments run workloads that are
// identical in every public dimension (request count per epoch, epoch count,
// configuration) but differ in every secret one — which keys are loaded,
// which keys are accessed (including the duplicate pattern the load balancer
// dedupes), and what values are written. The telemetry access trace (every
// recording-site invocation with its payloads), the exported /metrics bytes,
// and the exported /trace/epochs bytes must come out identical.
//
// The registry clock is stubbed to zero so durations cannot differ between
// runs for scheduling reasons; what remains — which instruments exist, how
// often each site fires, and every recorded payload — is exactly the part
// that must be a function of public configuration only.
package trace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/obliv"
	"snoopy/internal/persist"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// telemetryWorkload drives a deployment with secrets derived from seed:
// epochs × perEpoch requests, half reads, half writes, with duplicate keys
// sprinkled in (dedup depth is secret). Returns the exported /metrics body,
// the /trace/epochs body, and the raw recording-site trace. A cfg with Ticks
// set runs ticked, on a tick channel of the workload's own that it ticks
// once per epoch.
func telemetryWorkload(t *testing.T, cfg core.Config, parts local, seed int64, epochs, perEpoch int) ([]byte, []byte, *telemetry.TraceSink) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return 0 })
	sink := telemetry.NewTraceSink()
	reg.SetTrace(sink)
	cfg.Telemetry = reg
	var ticks chan time.Time
	if cfg.Ticks != nil {
		ticks = make(chan time.Time)
		cfg.Ticks = ticks
	}

	sys := parts.open(t, cfg)
	defer sys.Close()

	// Secret object set: same size both runs, different keys and values.
	const nObjects = 128
	ids := make([]uint64, nObjects)
	perm := rng.Perm(nObjects * 64)
	for i := range ids {
		ids[i] = uint64(perm[i])
	}
	data := make([]byte, nObjects*cfg.BlockSize)
	rng.Read(data)
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	var pending []func() ([]byte, bool, error)
	for e := 0; e < epochs; e++ {
		waits := make([]func() ([]byte, bool, error), 0, perEpoch)
		var last uint64
		for i := 0; i < perEpoch; i++ {
			// Secret key choice: loaded keys, missing keys, and duplicates
			// (collapsed by the oblivious dedup) in a seed-dependent mix.
			key := ids[rng.Intn(nObjects)]
			switch rng.Intn(4) {
			case 0:
				key = uint64(rng.Intn(1 << 20)) // likely not loaded
			case 1:
				if i > 0 {
					key = last // duplicate within the epoch
				}
			}
			last = key
			var w func() ([]byte, bool, error)
			var err error
			if i%2 == 0 {
				w, err = sys.Submit(core.Request{Op: store.OpRead, Key: key})
			} else {
				secret := make([]byte, cfg.BlockSize)
				rng.Read(secret)
				w, err = sys.Submit(core.Request{Op: store.OpWrite, Key: key, Value: secret})
			}
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, w)
		}
		if ticks != nil {
			// Overlapped engine: let epochs pile up in the pipeline and
			// drain at the end, so stages genuinely overlap while the
			// trace is captured. The tick's epoch has taken every request
			// submitted so far once each load balancer has batched it.
			ticks <- time.Now()
			for reg.Counter("lb_batches_total").Value() < uint64((e+1)*cfg.NumLoadBalancers) {
				time.Sleep(10 * time.Microsecond)
			}
			pending = append(pending, waits...)
			continue
		}
		sys.Flush()
		for _, w := range waits {
			if _, _, err := w(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range pending {
		if _, _, err := w(); err != nil {
			t.Fatal(err)
		}
	}

	// A reply reaches its waiter before the epoch's closing telemetry is
	// recorded; Close waits out every dispatched epoch, so the exports below
	// read a finished registry rather than racing the last stage C.
	sys.Close()

	// No two spans may share (Epoch, Stage, Part): recording sites that
	// collide there leave the canonical order to the remaining fields, and
	// the collision itself means a Part label is not globally unique.
	type spanID struct {
		epoch uint64
		stage string
		part  int
	}
	seen := map[spanID]bool{}
	for _, sp := range reg.Spans(1 << 20) {
		id := spanID{sp.Epoch, sp.Stage, sp.Part}
		if seen[id] {
			t.Fatalf("two spans share (epoch %d, stage %q, part %d)", sp.Epoch, sp.Stage, sp.Part)
		}
		seen[id] = true
	}

	// Export through the real HTTP operator surface, not just the internal
	// snapshot: these are the bytes an observer of the endpoint sees.
	h := telemetry.Handler(reg)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if mrec.Code != 200 {
		t.Fatalf("/metrics status %d", mrec.Code)
	}
	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest("GET", "/trace/epochs?n=1024", nil))
	if trec.Code != 200 {
		t.Fatalf("/trace/epochs status %d", trec.Code)
	}
	return mrec.Body.Bytes(), trec.Body.Bytes(), sink
}

// local is the partition side of a leakage deployment: n in-process
// partitions of workers scan workers each, durable under dir when it is set,
// built by the one partition constructor on the deployment's registry.
type local struct {
	n, workers int
	dir        string
}

func (l local) open(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	subs := make([]core.SubORAMClient, l.n)
	for i := range subs {
		dir := ""
		if l.dir != "" {
			dir = filepath.Join(l.dir, fmt.Sprintf("part-%03d", i))
		}
		sub, _, closer, err := persist.NewPartition(cfg.BlockSize, l.workers, false, dir, false, cfg.Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer() })
		subs[i] = sub
	}
	sys, err := core.NewWithSubORAMs(cfg, subs)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// diffLines pinpoints the first differing line for a readable failure.
func diffLines(t *testing.T, what string, a, b []byte) {
	t.Helper()
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s differs at line %d:\n  run A: %s\n  run B: %s", what, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s differs in length: %d vs %d lines", what, len(al), len(bl))
}

// kernelInfoGauge is the /metrics line naming the scan-kernel body in use.
var kernelInfoGauge = `gauge snoopy_kernel_info{isa="` + obliv.Kernel() + `"} 1`

func assertTelemetryIndependent(t *testing.T, cfg core.Config, parts local, epochs, perEpoch int) {
	t.Helper()
	metricsA, spansA, sinkA := telemetryWorkload(t, cfg, parts, 1001, epochs, perEpoch)
	metricsB, spansB, sinkB := telemetryWorkload(t, cfg, parts, 2002, epochs, perEpoch)

	if sinkA.Count() == 0 {
		t.Fatal("telemetry trace captured nothing — instrumentation broken")
	}
	if !bytes.Equal(metricsA, metricsB) {
		diffLines(t, "/metrics output", metricsA, metricsB)
	}
	// The hash table's shape is among the compared bytes: a function of the
	// public (batch size, partition size, λ), never of what was requested.
	// So is the scan-kernel body, a property of the platform.
	for _, gauge := range []string{"suboram_table_slots", "suboram_slots_per_lookup", kernelInfoGauge} {
		if !bytes.Contains(metricsA, []byte(gauge)) {
			t.Fatalf("/metrics output has no %s", gauge)
		}
	}
	if !bytes.Equal(spansA, spansB) {
		diffLines(t, "/trace/epochs output", spansA, spansB)
	}
	if !telemetry.EqualTraces(sinkA, sinkB) {
		t.Fatalf("telemetry access trace depends on secrets (%d vs %d events)",
			sinkA.Count(), sinkB.Count())
	}
}

// TestTelemetryTraceIndependentOfSecretsSequential: single load balancer,
// single partition, durable (so the persist WAL instruments are exercised),
// fully sequential workers — the strictest byte-for-byte comparison.
func TestTelemetryTraceIndependentOfSecretsSequential(t *testing.T) {
	run := func(seed int64, dir string) ([]byte, []byte, *telemetry.TraceSink) {
		return telemetryWorkload(t, core.Config{
			BlockSize:        block,
			NumLoadBalancers: 1,
			Lambda:           32,
			SortWorkers:      1,
		}, local{n: 1, workers: 1, dir: dir}, seed, 3, 24)
	}
	metricsA, spansA, sinkA := run(1001, t.TempDir())
	metricsB, spansB, sinkB := run(2002, t.TempDir())
	if sinkA.Count() == 0 {
		t.Fatal("telemetry trace captured nothing — instrumentation broken")
	}
	if !bytes.Equal(metricsA, metricsB) {
		diffLines(t, "/metrics output", metricsA, metricsB)
	}
	// The hash table's shape is among the compared bytes: a function of the
	// public (batch size, partition size, λ), never of what was requested.
	// So are the durable partition's sync and byte counts per sealed file.
	for _, name := range []string{
		"suboram_table_slots", "suboram_slots_per_lookup", kernelInfoGauge,
		`persist_syncs_total{log="wal"}`, `persist_syncs_total{log="counter"}`,
		`persist_bytes_written_total{log="wal"}`, `persist_sync_seconds{log="wal"}`,
	} {
		if !bytes.Contains(metricsA, []byte(name)) {
			t.Fatalf("/metrics output has no %s", name)
		}
	}
	if !bytes.Equal(spansA, spansB) {
		diffLines(t, "/trace/epochs output", spansA, spansB)
	}
	if !telemetry.EqualTraces(sinkA, sinkB) {
		t.Fatalf("telemetry access trace depends on secrets (%d vs %d events)",
			sinkA.Count(), sinkB.Count())
	}
}

// TestTelemetryTraceIndependentOfSecretsParallel: the production shape —
// multiple load balancers and partitions, parallel workers. Goroutine
// interleaving may reorder recordings between runs, but the canonical span
// ordering and the per-site multiset trace digest must still match exactly.
func TestTelemetryTraceIndependentOfSecretsParallel(t *testing.T) {
	assertTelemetryIndependent(t, core.Config{
		BlockSize:        block,
		NumLoadBalancers: 2,
		Lambda:           32,
		SortWorkers:      2,
	}, local{n: 4, workers: 2}, 4, 48)
}

// TestTelemetryTraceIndependentOfSecretsPipelined: the ticked epoch engine
// (D = 2; the test sends every tick) with epochs deliberately left in
// flight so stage A of later epochs runs while stage B/C of earlier ones
// drain. The
// dispatch schedule, the per-stage spans, the depth gauge, and the
// monotone epoch-gauge updates must all stay functions of public
// parameters: byte-identical /metrics and /trace/epochs, identical
// per-site trace multisets, regardless of which secrets flow through the
// overlapped stages.
func TestTelemetryTraceIndependentOfSecretsPipelined(t *testing.T) {
	assertTelemetryIndependent(t, core.Config{
		BlockSize:        block,
		NumLoadBalancers: 2,
		Lambda:           32,
		SortWorkers:      2,
		Ticks:            make(chan time.Time), // ticked: telemetryWorkload ticks its own
	}, local{n: 4, workers: 2}, 6, 48)
}

// TestTelemetrySnapshotIndependentOfSecrets: the programmatic export
// (Registry.Snapshot, what snoopy.TelemetrySnapshot hands a caller)
// is as content-independent as the HTTP surface.
func TestTelemetrySnapshotIndependentOfSecrets(t *testing.T) {
	cfg := core.Config{
		BlockSize:        block,
		NumLoadBalancers: 1,
		Lambda:           32,
		SortWorkers:      1,
	}
	runSnap := func(seed int64) telemetry.Snapshot {
		reg := telemetry.NewRegistry()
		reg.SetClock(func() int64 { return 0 })
		c := cfg
		c.Telemetry = reg
		sys := local{n: 2, workers: 1}.open(t, c)
		defer sys.Close()
		rng := rand.New(rand.NewSource(seed))
		ids := make([]uint64, 64)
		for i := range ids {
			ids[i] = uint64(rng.Intn(1<<30)*64 + i) // distinct, secret
		}
		data := make([]byte, 64*block)
		rng.Read(data)
		if err := sys.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			waits := make([]func() ([]byte, bool, error), 0, 16)
			for i := 0; i < 16; i++ {
				w, err := sys.Submit(core.Request{Op: store.OpWrite, Key: ids[rng.Intn(len(ids))], Value: []byte{byte(rng.Intn(256))}})
				if err != nil {
					t.Fatal(err)
				}
				waits = append(waits, w)
			}
			sys.Flush()
			for _, w := range waits {
				if _, _, err := w(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return reg.Snapshot(256)
	}
	a, b := runSnap(7), runSnap(8)
	if len(a.Counters) == 0 || len(a.Spans) == 0 {
		t.Fatal("snapshot captured nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot depends on secrets:\nA: %+v\nB: %+v", a, b)
	}
}
