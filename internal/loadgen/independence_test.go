// The workload-independence soak: the full scenario machinery (open-loop
// plans, Zipf and hot-key-storm key choice, identical arrival schedules)
// driven end-to-end through the oblivious system, asserting the paper's §8
// claim at the observable surfaces. Workloads that differ only in the
// secret key distribution must produce byte-identical /metrics and
// /trace/epochs exports and identical telemetry access traces, while the
// plaintext baseline's per-shard routing — the adversary's view of a
// Redis-style deployment — visibly diverges on the same plans.
package loadgen_test

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/loadgen"
	"snoopy/internal/plaintext"
	"snoopy/internal/telemetry"
)

// soakCfg is the shared run shape: everything public is fixed; tests vary
// only Scenario.Keys (and key-choice knobs), the secret input.
func soakCfg(keys loadgen.KeyPattern) loadgen.Config {
	return loadgen.Config{
		Scenario: loadgen.Scenario{Name: string(keys), Keys: keys, WriteFrac: 0.5, UpdateFrac: 0.25},
		Sessions: 300,
		Rate:     1200,
		Duration: 250 * time.Millisecond,
		Objects:  96,
		Seed:     31,
		Epoch:    25 * time.Millisecond,
		Virtual:  true,
	}
}

// runSoak drives one key pattern through a fresh deployment with a stubbed
// telemetry clock and returns the observable surfaces: the /metrics body,
// the /trace/epochs body, the raw recording-site trace, and the report.
func runSoak(t *testing.T, keys loadgen.KeyPattern) ([]byte, []byte, *telemetry.TraceSink, loadgen.Report) {
	t.Helper()
	const blockSize = 32
	cfg := soakCfg(keys)

	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return 0 })
	sink := telemetry.NewTraceSink()
	reg.SetTrace(sink)

	sys, err := core.NewWithSubORAMs(core.Config{
		BlockSize:   blockSize,
		Lambda:      32,
		SortWorkers: 1,
		Telemetry:   reg,
	}, localSubs(2, blockSize, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ids := make([]uint64, cfg.Objects)
	data := make([]byte, cfg.Objects*blockSize)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*blockSize] = byte(i + 1)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	rep, err := loadgen.Run(coreStore{sys}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Completed != rep.Submitted {
		t.Fatalf("%s soak incomplete: %+v", keys, rep)
	}

	h := telemetry.Handler(reg)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest("GET", "/trace/epochs?n=4096", nil))
	if mrec.Code != 200 || trec.Code != 200 {
		t.Fatalf("telemetry export status %d/%d", mrec.Code, trec.Code)
	}
	return mrec.Body.Bytes(), trec.Body.Bytes(), sink, rep
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestWorkloadIndependenceSoak: uniform vs Zipf vs hot-key storm over
// identical arrival schedules. The oblivious deployment's epoch schedule
// and every exported telemetry byte must be identical across the three.
func TestWorkloadIndependenceSoak(t *testing.T) {
	refMetrics, refSpans, refSink, refRep := runSoak(t, loadgen.KeysUniform)
	if refSink.Count() == 0 {
		t.Fatal("telemetry trace captured nothing — instrumentation broken")
	}
	for _, keys := range []loadgen.KeyPattern{loadgen.KeysZipf, loadgen.KeysHot} {
		m, s, sink, rep := runSoak(t, keys)
		if !reflect.DeepEqual(rep.EpochRequests, refRep.EpochRequests) {
			t.Fatalf("%s: epoch schedule diverged from uniform", keys)
		}
		if !bytes.Equal(m, refMetrics) {
			i := firstDiff(m, refMetrics)
			t.Fatalf("%s: /metrics bytes diverge at offset %d: %q vs %q",
				keys, i, excerpt(m, i), excerpt(refMetrics, i))
		}
		if !bytes.Equal(s, refSpans) {
			i := firstDiff(s, refSpans)
			t.Fatalf("%s: /trace/epochs bytes diverge at offset %d: %q vs %q",
				keys, i, excerpt(s, i), excerpt(refSpans, i))
		}
		if !telemetry.EqualTraces(sink, refSink) {
			t.Fatalf("%s: telemetry access trace depends on the key distribution (%d vs %d events)",
				keys, sink.Count(), refSink.Count())
		}
	}
}

func excerpt(b []byte, i int) []byte {
	lo, hi := i-20, i+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}

// TestPlaintextBaselineDiverges replays the same plans against the
// baseline's routing function: under the hot-key storm one shard absorbs
// ~90% of the load, under uniform each of the 8 shards takes ~12.5% — the
// secret is right there in the traffic split. This is the contrast that
// makes the oblivious result above meaningful rather than vacuous.
func TestPlaintextBaselineDiverges(t *testing.T) {
	st := plaintext.New(8)
	maxShare := func(keys loadgen.KeyPattern) float64 {
		ev, _, err := loadgen.Plan(soakCfg(keys))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, st.NumShards())
		for _, e := range ev {
			counts[st.ShardOf(e.Key)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(ev))
	}
	uniform := maxShare(loadgen.KeysUniform)
	hot := maxShare(loadgen.KeysHot)
	if hot-uniform < 0.25 {
		t.Fatalf("baseline shard load should diverge: uniform max-share %.3f, hot-key max-share %.3f", uniform, hot)
	}
}
