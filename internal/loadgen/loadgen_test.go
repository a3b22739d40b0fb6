package loadgen_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/loadgen"
	"snoopy/internal/metrics"
	"snoopy/internal/store"
)

func baseCfg() loadgen.Config {
	return loadgen.Config{
		Scenario: loadgen.Scenario{Name: "test", WriteFrac: 0.5},
		Sessions: 1000,
		Rate:     2000,
		Duration: 500 * time.Millisecond,
		Objects:  256,
		Seed:     42,
		Epoch:    25 * time.Millisecond,
	}
}

func TestPlanDeterminism(t *testing.T) {
	cfg := baseCfg()
	ev1, info1, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev2, info2, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev1, ev2) || !reflect.DeepEqual(info1, info2) {
		t.Fatal("same seed must produce an identical plan")
	}
	if len(ev1) < 500 || len(ev1) > 1500 {
		t.Fatalf("plan size off: %d events for 2000rps x 0.5s", len(ev1))
	}
	cfg.Seed = 43
	ev3, _, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ev1, ev3) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestPlanArrivalIndependentOfKeyPattern is the schedule half of the
// workload-independence property: the key pattern is the secret input, so
// changing it (uniform -> zipf -> hot-key storm) must leave every public
// dimension of the plan — arrival times, session attribution, op types,
// per-epoch counts — bit-identical, with only the keys differing.
func TestPlanArrivalIndependentOfKeyPattern(t *testing.T) {
	patterns := []loadgen.KeyPattern{loadgen.KeysUniform, loadgen.KeysZipf, loadgen.KeysHot}
	var ref []loadgen.Event
	var refInfo loadgen.PlanInfo
	for i, kp := range patterns {
		cfg := baseCfg()
		cfg.Scenario.Keys = kp
		ev, info, err := loadgen.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref, refInfo = ev, info
			continue
		}
		if !reflect.DeepEqual(info.EpochRequests, refInfo.EpochRequests) {
			t.Fatalf("%s: per-epoch request counts diverged from uniform", kp)
		}
		if len(ev) != len(ref) {
			t.Fatalf("%s: event count %d vs %d", kp, len(ev), len(ref))
		}
		keysDiffer := false
		for j := range ev {
			a, b := ev[j], ref[j]
			if a.At != b.At || a.Session != b.Session || a.Write != b.Write ||
				a.Update != b.Update || a.Slow != b.Slow {
				t.Fatalf("%s: public event fields diverged at %d: %+v vs %+v", kp, j, a, b)
			}
			if a.Key != b.Key {
				keysDiffer = true
			}
		}
		if !keysDiffer {
			t.Fatalf("%s: key sequence identical to uniform — pattern not applied", kp)
		}
	}
}

func TestPlanChurnAndSlowSessions(t *testing.T) {
	cfg := baseCfg()
	cfg.Scenario.ChurnFrac = 0.2
	cfg.Scenario.SlowFrac = 0.1
	ev, info, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.DistinctSessions <= cfg.Sessions {
		t.Fatalf("churn produced no replacement sessions: %d", info.DistinctSessions)
	}
	slow := 0
	for _, e := range ev {
		if e.Slow {
			slow++
		}
	}
	if frac := float64(slow) / float64(len(ev)); frac < 0.02 || frac > 0.3 {
		t.Fatalf("slow-session fraction off: %.3f of %d events", frac, len(ev))
	}
}

func TestPlanUpdatesCountTwice(t *testing.T) {
	cfg := baseCfg()
	cfg.Scenario.WriteFrac = 0
	cfg.Scenario.UpdateFrac = 1 // every op is a read+write pair
	ev, info, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ops != 2*len(ev) {
		t.Fatalf("all-update plan: Ops = %d, want %d", info.Ops, 2*len(ev))
	}
	sum := 0
	for _, n := range info.EpochRequests {
		sum += n
	}
	if sum != info.Ops {
		t.Fatalf("epoch counts sum %d != ops %d", sum, info.Ops)
	}
}

// coreStore drives a core.System through loadgen's Store surface.
type coreStore struct{ *core.System }

func (c coreStore) ReadAsync(k uint64) (func() ([]byte, bool, error), error) {
	return c.Submit(core.Request{Op: store.OpRead, Key: k})
}

func (c coreStore) WriteAsync(k uint64, v []byte) (func() ([]byte, bool, error), error) {
	return c.Submit(core.Request{Op: store.OpWrite, Key: k, Value: v})
}

func newCoreStore(t *testing.T, objects, blockSize int) coreStore {
	t.Helper()
	sys, err := core.NewLocal(core.Config{BlockSize: blockSize, NumSubORAMs: 2, Lambda: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ids := make([]uint64, objects)
	data := make([]byte, objects*blockSize)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*blockSize] = byte(i + 1)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	return coreStore{sys}
}

// TestRunVirtualAgainstCore drives the real oblivious system in virtual
// time: every planned operation must complete, and the reported public
// schedule must match the plan's.
func TestRunVirtualAgainstCore(t *testing.T) {
	cfg := baseCfg()
	cfg.Virtual = true
	cfg.Rate = 1000
	cfg.Objects = 64
	sys := newCoreStore(t, cfg.Objects, 32)

	_, info, err := loadgen.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d operations failed", rep.Failed)
	}
	if rep.Submitted != info.Ops || rep.Completed != info.Ops {
		t.Fatalf("submitted/completed %d/%d, plan has %d ops", rep.Submitted, rep.Completed, info.Ops)
	}
	if !reflect.DeepEqual(rep.EpochRequests, info.EpochRequests) {
		t.Fatal("reported epoch schedule differs from the plan")
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P999 < rep.Latency.P99 {
		t.Fatalf("implausible latency summary: %+v", rep.Latency)
	}
}

// TestScenarioSuiteSoak runs every scenario of the standard matrix against
// the real system in virtual time — the race-detector soak for the whole
// harness surface (churn, slow clients, bursts, updates, all key patterns).
func TestScenarioSuiteSoak(t *testing.T) {
	for _, sc := range loadgen.Suite(20 * time.Millisecond) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			cfg := loadgen.Config{
				Scenario: sc,
				Sessions: 500,
				Rate:     1500,
				Duration: 300 * time.Millisecond,
				Objects:  64,
				Seed:     7,
				Epoch:    20 * time.Millisecond,
				Virtual:  true,
			}
			sys := newCoreStore(t, cfg.Objects, 32)
			rep, err := loadgen.Run(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Completed == 0 || rep.Completed != rep.Submitted {
				t.Fatalf("scenario %s: %+v", sc.Name, rep)
			}
		})
	}
}

// ---- Coordinated omission ----

// stallStore completes instantly, but its submit path blocks for the whole
// stall window — the shape of a server that stops reading its sockets for
// ten epochs. A closed-loop harness measuring from the actual send time
// sees near-zero latency (it simply stops sending); the open-loop report,
// anchored at intended send times, must charge the full stall.
type stallStore struct{ from, until time.Time }

func (s *stallStore) block() {
	now := time.Now()
	if now.After(s.from) && now.Before(s.until) {
		time.Sleep(time.Until(s.until))
	}
}

func (s *stallStore) ReadAsync(uint64) (func() ([]byte, bool, error), error) {
	s.block()
	return func() ([]byte, bool, error) { return nil, true, nil }, nil
}

func (s *stallStore) WriteAsync(uint64, []byte) (func() ([]byte, bool, error), error) {
	s.block()
	return func() ([]byte, bool, error) { return nil, true, nil }, nil
}

func (s *stallStore) Flush() {}

// naiveWrap measures what a coordinated-omission-blind harness would: time
// from the actual (post-block) send to completion.
type naiveWrap struct {
	inner loadgen.Store
	lat   *metrics.Latencies
}

func (n *naiveWrap) wrap(w func() ([]byte, bool, error), err error) (func() ([]byte, bool, error), error) {
	if err != nil {
		return w, err
	}
	sent := time.Now()
	var once sync.Once
	return func() ([]byte, bool, error) {
		v, ok, e := w()
		once.Do(func() { n.lat.Add(time.Since(sent)) })
		return v, ok, e
	}, nil
}

func (n *naiveWrap) ReadAsync(k uint64) (func() ([]byte, bool, error), error) {
	return n.wrap(n.inner.ReadAsync(k))
}

func (n *naiveWrap) WriteAsync(k uint64, v []byte) (func() ([]byte, bool, error), error) {
	return n.wrap(n.inner.WriteAsync(k, v))
}

func (n *naiveWrap) Flush() { n.inner.Flush() }

// TestCoordinatedOmissionStall is the regression test for the harness's
// central measurement property: a 10-epoch server stall must appear in the
// reported p99 even though the stall also blocks the generator itself.
func TestCoordinatedOmissionStall(t *testing.T) {
	const (
		epoch       = 20 * time.Millisecond
		stallEpochs = 10
		stallLen    = stallEpochs * epoch // 200ms
	)
	cfg := loadgen.Config{
		Scenario: loadgen.Scenario{Name: "stall", WriteFrac: 0.2},
		Sessions: 100,
		Rate:     2000,
		Duration: 700 * time.Millisecond,
		Objects:  64,
		Seed:     9,
		Epoch:    epoch,
	}
	start := time.Now()
	st := &stallStore{from: start.Add(150 * time.Millisecond), until: start.Add(150*time.Millisecond + stallLen)}
	naive := &naiveWrap{inner: st, lat: &metrics.Latencies{}}
	rep, err := loadgen.Run(naive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut {
		t.Fatal("run timed out")
	}
	if rep.Completed == 0 || rep.Completed+rep.Failed != rep.Submitted {
		t.Fatalf("accounting off: %+v", rep)
	}
	// ~29% of intended sends fall inside the stall window; p99 must sit
	// deep in the stall-affected tail, near the full stall length.
	if rep.Latency.P99 < 100 {
		t.Fatalf("open-loop p99 = %.1fms hides a %v stall", rep.Latency.P99, stallLen)
	}
	if rep.Latency.Max < 150 {
		t.Fatalf("open-loop max = %.1fms, stall is %v", rep.Latency.Max, stallLen)
	}
	// The blind measurement must have hidden it — that is exactly the
	// coordinated-omission failure this harness exists to avoid.
	blind := naive.lat.Snapshot()
	if blind.P99 > 50*time.Millisecond {
		t.Fatalf("blind p99 = %v: stall leaked into send-anchored samples, stub broken", blind.P99)
	}
	if float64(rep.Latency.P99) <= 2*float64(blind.P99)/float64(time.Millisecond) {
		t.Fatalf("open-loop p99 %.1fms not clearly above blind p99 %v", rep.Latency.P99, blind.P99)
	}
}

// ---- Knee search ----

// queueStore is a single-server queue with a fixed service rate:
// completions are spaced 1/capacity apart, so offered load below capacity
// sees small latency and offered load above it sees unbounded queueing.
type queueStore struct {
	mu   sync.Mutex
	next time.Time
	per  time.Duration
}

func (q *queueStore) waiter() (func() ([]byte, bool, error), error) {
	q.mu.Lock()
	now := time.Now()
	if q.next.Before(now) {
		q.next = now
	}
	q.next = q.next.Add(q.per)
	done := q.next
	q.mu.Unlock()
	return func() ([]byte, bool, error) {
		time.Sleep(time.Until(done))
		return nil, true, nil
	}, nil
}

func (q *queueStore) ReadAsync(uint64) (func() ([]byte, bool, error), error) { return q.waiter() }
func (q *queueStore) WriteAsync(uint64, []byte) (func() ([]byte, bool, error), error) {
	return q.waiter()
}
func (q *queueStore) Flush() {}

// TestFindKneeLocatesCapacity searches a queue with a known 5000 rps
// service rate. From far below capacity the search must bracket it within
// 10 %. From twice capacity the first probe fails, so there is no knee, and
// that probe reports what the queue served over the wall time it took to
// drain, not what was offered.
func TestFindKneeLocatesCapacity(t *testing.T) {
	const capacity = 5000.0
	open := func() (loadgen.Store, func(), error) {
		return &queueStore{per: time.Duration(float64(time.Second) / capacity)}, func() {}, nil
	}
	base := loadgen.Config{
		Scenario: loadgen.Scenario{Name: "knee", WriteFrac: 0.5},
		Sessions: 200,
		Duration: 250 * time.Millisecond,
		Objects:  64,
		Seed:     3,
		Epoch:    25 * time.Millisecond,
	}
	for _, c := range []struct {
		name  string
		start float64
	}{{"far-below", capacity / 8}, {"above", 2 * capacity}} {
		t.Run(c.name, func(t *testing.T) {
			// The p99 gate binds first: past capacity the backlog grows at
			// r − capacity, so by the end of a 0.25 s schedule p99 passes
			// 12.5 ms near 1.05× capacity. Goodput 0.75 only catches
			// deeper overload: a 0.25 s Poisson schedule at 625 rps
			// carries ~156±12 arrivals, so 0.9 would test the seed's
			// sample, not the server.
			knee, err := loadgen.FindKnee(open, base, c.start, 12500*time.Microsecond, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			if c.start > capacity {
				if knee.Rate != 0 || len(knee.Probes) != 1 || knee.Failed() != c.start {
					t.Fatalf("knee %.0f rps from an overloaded start: %+v", knee.Rate, knee.Probes)
				}
				if got := knee.Probes[0].Achieved; got > 1.1*capacity {
					t.Fatalf("overloaded probe reports %.0f rps achieved, the queue serves %.0f: %+v", got, capacity, knee.Probes)
				}
				return
			}
			if knee.Rate < 0.9*capacity || knee.Rate > 1.1*capacity || knee.Failed() > 1.1*knee.Rate {
				t.Fatalf("knee %.0f rps, first failure %.0f rps: not within 10 %% of %.0f rps: %+v",
					knee.Rate, knee.Failed(), capacity, knee.Probes)
			}
		})
	}
}
