// Journal leakage tests: the root's sealed epoch journal and the
// standby-promotion path must not reinstate the side channel. Two full
// deployments run workloads identical in every public dimension — request
// count per epoch, epoch count, configuration, and the crash schedule
// (which epoch the root dies in, and at which protocol point) — but
// differing in every secret one: which keys are accessed, what values are
// written, and the duplicate structure the balancer dedupes. The journal's
// host-visible I/O trace (every file read and write with offset and
// length), the telemetry access trace, and the exported /metrics and
// /trace/epochs bytes must come out identical across the runs, through the
// crash, the standby's replay of the journaled epoch, and the clients'
// idempotent retries.
package trace_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
	"snoopy/internal/transport"
)

// crashAfter kills the root right after the partition it wraps applied
// epoch crash: the epoch is dispatched to every partition and no reply has
// left the root — its "dispatch" crash point, reached from outside.
type crashAfter struct {
	*transport.Window
	root  **core.System
	crash uint64
}

func (c *crashAfter) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs, err := c.Window.Deliver(tag, reqs)
	if tag.Epoch == c.crash {
		(*c.root).Crash()
	}
	return outs, err
}

// engines are the epoch engines the journal suites run: driven by Flush
// (D = 1), and by ticks the test sends, each run by the engine's tick loop
// as a production ticker's is (D = 2).
var engines = []struct {
	label  string
	ticked bool
}{{"depth=1", false}, {"depth=2", true}}

// journalWorkload drives a journaling deployment with secrets derived from
// seed: epochs × perEpoch idempotent requests against tagged partitions,
// with the root crashed at the "dispatch" point of crashEpoch and a
// standby promoted over the same journal directory (replaying the epoch
// and answering the clients' retries from its reply window). Both
// incarnations run the engine ticked or not (engines). Returns the exported
// /metrics and /trace/epochs bytes, the telemetry trace, and the two
// incarnations' journal I/O recorders.
func journalWorkload(t *testing.T, seed int64, dir string, epochs, perEpoch int,
	crashEpoch uint64, ticked bool) ([]byte, []byte, *telemetry.TraceSink, *trace.Recorder, *trace.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return 0 })
	sink := telemetry.NewTraceSink()
	reg.SetTrace(sink)

	const parts = 2
	subs := make([]*transport.Window, parts)
	for i := range subs {
		subs[i] = transport.NewWindow(suboram.New(suboram.Config{BlockSize: block}))
	}
	recPrimary, recStandby := trace.New(), trace.New()
	var sys *core.System
	var ticks chan time.Time // the open incarnation's epoch source, when ticked
	open := func(rec *trace.Recorder) *core.System {
		clients := make([]core.SubORAMClient, parts)
		for i := range clients {
			clients[i] = subs[i]
		}
		if rec == recPrimary {
			// The crash schedule is public: both runs kill the root at the
			// same epoch and protocol point.
			clients[0] = &crashAfter{Window: subs[0], root: &sys, crash: crashEpoch}
		}
		ticks = nil
		if ticked {
			ticks = make(chan time.Time)
		}
		s, err := core.NewWithSubORAMs(core.Config{
			BlockSize:        block,
			NumLoadBalancers: 1,
			Lambda:           32,
			SortWorkers:      1,
			Ticks:            ticks,
			JournalDir:       dir,
			JournalRec:       rec,
			Telemetry:        reg,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sys = open(recPrimary)
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()

	// Secret object set: same size both runs, different keys and values.
	const nObjects = 128
	ids := make([]uint64, nObjects)
	perm := rng.Perm(nObjects * 64)
	for i := range ids {
		ids[i] = uint64(perm[i])
	}
	data := make([]byte, nObjects*block)
	rng.Read(data)
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	type pend struct {
		id    uint64
		key   uint64
		write bool
		val   []byte
		wait  func() ([]byte, bool, error)
	}
	nextID := uint64(1)
	for e := 0; e < epochs; e++ {
		waits := make([]pend, 0, perEpoch)
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
			p := pend{id: nextID, key: key, write: i%2 == 1}
			nextID++
			var err error
			if p.write {
				p.val = make([]byte, block)
				rng.Read(p.val)
				p.wait, err = sys.Submit(core.Request{Op: store.OpWrite, Key: p.key, Value: p.val, ID: p.id})
			} else {
				p.wait, err = sys.Submit(core.Request{Op: store.OpRead, Key: p.key, ID: p.id})
			}
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, p)
		}
		published := sys.LastEpochStats().Epoch
		if ticks != nil {
			ticks <- time.Now()
		} else {
			sys.Flush()
		}
		// Resolve the epoch before looking at the root: a "dispatch" crash
		// lands after the tick is taken.
		errs := make([]error, len(waits))
		for i, p := range waits {
			_, _, errs[i] = p.wait()
		}
		if sys.Crashed() {
			// Public failover: promote the standby over the same journal
			// directory (replays the journaled epoch against the tagged
			// partitions) and retry every unanswered request under its
			// original idempotency ID — answered from the reply window.
			sys.Close()
			sys = open(recStandby)
			for i, p := range waits {
				if !errors.Is(errs[i], core.ErrRootDown) {
					t.Fatalf("in-flight request after root crash: %v", errs[i])
				}
				var err error
				if p.write {
					_, _, err = do(sys, core.Request{Op: store.OpWrite, Key: p.key, Value: p.val, ID: p.id})
				} else {
					_, _, err = do(sys, core.Request{Op: store.OpRead, Key: p.key, ID: p.id})
				}
				if err != nil {
					t.Fatalf("idempotent retry after promotion: %v", err)
				}
			}
			continue
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// A reply reaches its client before the epoch's journal completion
		// is appended; wait for the epoch to be published (after its
		// completion), so the next epoch's record follows it in every run.
		for sys.LastEpochStats().Epoch == published {
			time.Sleep(10 * time.Microsecond)
		}
	}
	sys.Close()
	closed = true

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
	return mrec.Body.Bytes(), trec.Body.Bytes(), sink, recPrimary, recStandby
}

// TestJournalTraceIndependentOfSecrets: the full failover story — journal
// writes before every dispatch, a root crash after dispatch, the standby's
// journal replay reads, and the retry traffic — produces byte-identical
// host-visible I/O and telemetry across secret-differing workloads.
func TestJournalTraceIndependentOfSecrets(t *testing.T) {
	for _, e := range engines {
		t.Run(e.label, func(t *testing.T) { testJournalTraceIndependentOfSecrets(t, e.ticked) })
	}
}

func testJournalTraceIndependentOfSecrets(t *testing.T, ticked bool) {
	const epochs, perEpoch = 4, 24
	const crashEpoch = 2
	metricsA, spansA, sinkA, priA, stbA := journalWorkload(t, 1001, t.TempDir(), epochs, perEpoch, crashEpoch, ticked)
	metricsB, spansB, sinkB, priB, stbB := journalWorkload(t, 2002, t.TempDir(), epochs, perEpoch, crashEpoch, ticked)

	if priA.Count() == 0 || stbA.Count() == 0 {
		t.Fatalf("journal I/O not captured (primary %d, standby %d events)", priA.Count(), stbA.Count())
	}
	if !trace.Equal(priA, priB) {
		t.Fatalf("primary journal I/O depends on secrets (%d vs %d events)", priA.Count(), priB.Count())
	}
	if !trace.Equal(stbA, stbB) {
		t.Fatalf("standby journal I/O (replay reads included) depends on secrets (%d vs %d events)",
			stbA.Count(), stbB.Count())
	}
	if !bytes.Equal(metricsA, metricsB) {
		diffLines(t, "/metrics output", metricsA, metricsB)
	}
	// The journal's and its counter's sync and byte counts are among the
	// compared bytes: functions of the epoch schedule and the public record
	// shape, whatever was journaled.
	for _, name := range []string{
		`persist_syncs_total{log="journal"}`, `persist_syncs_total{log="counter"}`,
		`persist_bytes_written_total{log="journal"}`, `persist_sync_seconds{log="journal"}`,
		"persist_journal_errors_total",
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

// TestJournalTraceCrashFreeRunsMatch: without a crash, two secret-differing
// journaling runs still produce identical journal write traces — the
// journal-before-dispatch write is one fixed-shape record per epoch, a
// function of public parameters (α, S, per-plane request counts) only.
func TestJournalTraceCrashFreeRunsMatch(t *testing.T) {
	for _, e := range engines {
		t.Run(e.label, func(t *testing.T) {
			const epochs, perEpoch = 3, 16
			_, _, _, priA, stbA := journalWorkload(t, 3003, t.TempDir(), epochs, perEpoch, 0, e.ticked)
			_, _, _, priB, stbB := journalWorkload(t, 4004, t.TempDir(), epochs, perEpoch, 0, e.ticked)
			if priA.Count() == 0 {
				t.Fatal("journal I/O not captured")
			}
			if !trace.Equal(priA, priB) {
				t.Fatalf("journal I/O depends on secrets (%d vs %d events)", priA.Count(), priB.Count())
			}
			if stbA.Count() != 0 || stbB.Count() != 0 {
				t.Fatal("standby recorder used without a crash")
			}
		})
	}
}

// do submits r to sys and blocks for its answer.
func do(sys *core.System, r core.Request) ([]byte, bool, error) {
	wait, err := sys.Submit(r)
	if err != nil {
		return nil, false, err
	}
	return wait()
}
