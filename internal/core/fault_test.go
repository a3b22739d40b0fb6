package core

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopy/internal/enclave"
	"snoopy/internal/faultnet"
	"snoopy/internal/persist"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

const faultBlock = 32

var errInjected = errors.New("injected partition crash")

// flakySub wraps a real partition with a switchable failure mode and a
// configurable pre-failure delay (so failed partitions report nonzero wall
// time, like a deadline expiry would).
type flakySub struct {
	inner     SubORAMClient
	fail      atomic.Bool
	failDelay time.Duration
}

func (f *flakySub) Init(ids []uint64, data []byte) error { return f.inner.Init(ids, data) }

func (f *flakySub) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	if f.fail.Load() {
		if f.failDelay > 0 {
			time.Sleep(f.failDelay)
		}
		return nil, errInjected
	}
	return f.inner.Deliver(tag, reqs)
}

// newFlakySystem builds an S-partition system over flaky local subORAMs,
// loaded with keys 0..n-1, manual epochs (Flush-driven).
func newFlakySystem(t *testing.T, S, n int) (*System, []*flakySub) {
	t.Helper()
	flaky := make([]*flakySub, S)
	subs := make([]SubORAMClient, S)
	for i := range subs {
		flaky[i] = &flakySub{inner: suboram.New(suboram.Config{BlockSize: faultBlock})}
		subs[i] = flaky[i]
	}
	sys, err := NewWithSubORAMs(Config{
		BlockSize: faultBlock, NumLoadBalancers: 1, Lambda: 32,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ids := make([]uint64, n)
	data := make([]byte, n*faultBlock)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*faultBlock] = byte(i + 1)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	return sys, flaky
}

// flushAsync submits reads for the given keys, runs one epoch, and returns
// each key's outcome.
func flushAsync(t *testing.T, sys *System, keys []uint64) map[uint64]error {
	t.Helper()
	waits := make(map[uint64]func() ([]byte, bool, error), len(keys))
	for _, k := range keys {
		w, err := sys.Submit(Request{Op: store.OpRead, Key: k})
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		waits[k] = w
	}
	sys.Flush()
	outcome := make(map[uint64]error, len(keys))
	for k, w := range waits {
		_, _, err := w()
		outcome[k] = err
	}
	return outcome
}

// TestPartitionFailureDegradesGracefully kills one of three partitions for
// an epoch: only the requests routed to it may fail (with its index in the
// error), the rest of the epoch completes, health counters track the
// failure, and the next epoch — partition recovered — is fully healthy.
func TestPartitionFailureDegradesGracefully(t *testing.T) {
	const S, n = 3, 60
	sys, flaky := newFlakySystem(t, S, n)
	keys := make([]uint64, n)
	routed := make(map[uint64]int, n)
	for i := range keys {
		keys[i] = uint64(i)
		routed[uint64(i)] = sys.SubORAMFor(uint64(i))
	}
	perPart := make([]int, S)
	for _, s := range routed {
		perPart[s]++
	}
	for s, c := range perPart {
		if c == 0 {
			t.Fatalf("no keys routed to partition %d; enlarge n", s)
		}
	}

	flaky[1].fail.Store(true)
	outcome := flushAsync(t, sys, keys)
	for k, err := range outcome {
		if routed[k] == 1 {
			if !errors.Is(err, errInjected) {
				t.Fatalf("key %d on dead partition: err=%v, want injected failure", k, err)
			}
			if !strings.Contains(err.Error(), "suboram 1") {
				t.Fatalf("key %d error %q lacks partition index", k, err)
			}
		} else if err != nil {
			t.Fatalf("key %d on healthy partition %d failed: %v", k, routed[k], err)
		}
	}
	h := sys.Health()
	if h.ConsecutiveFailures[1] != 1 || h.TotalFailures[1] != 1 {
		t.Fatalf("health for dead partition: %+v", h)
	}
	if h.ConsecutiveFailures[0] != 0 || h.ConsecutiveFailures[2] != 0 {
		t.Fatalf("healthy partitions marked failed: %+v", h)
	}

	// Next epoch, partition recovered: the system survived and is whole.
	flaky[1].fail.Store(false)
	outcome = flushAsync(t, sys, keys)
	for k, err := range outcome {
		if err != nil {
			t.Fatalf("key %d failed after recovery: %v", k, err)
		}
	}
	h = sys.Health()
	if h.ConsecutiveFailures[1] != 0 {
		t.Fatalf("consecutive-failure run not reset on success: %+v", h)
	}
	if h.TotalFailures[1] != 1 {
		t.Fatalf("total failures lost: %+v", h)
	}
}

// shortSub answers with one response row too few while short is set.
type shortSub struct {
	inner SubORAMClient
	short atomic.Bool
}

func (f *shortSub) Init(ids []uint64, data []byte) error { return f.inner.Init(ids, data) }

func (f *shortSub) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs, err := f.inner.Deliver(tag, reqs)
	if err == nil && f.short.Load() {
		for _, out := range outs {
			out.Resize(out.Len() - 1)
		}
	}
	return outs, err
}

// TestMisshapenResponseFailsItsPartition: stage C hands MatchResponses
// exactly α rows per partition, so a response that is not its batch's α rows
// is that partition's failure — its requests get an error naming it, never a
// silent not-found — and the other partitions' requests are answered.
func TestMisshapenResponseFailsItsPartition(t *testing.T) {
	const S, n = 3, 60
	subs := make([]SubORAMClient, S)
	for i := range subs {
		subs[i] = suboram.New(suboram.Config{BlockSize: faultBlock})
	}
	bad := &shortSub{inner: subs[2]}
	subs[2] = bad
	sys, err := NewWithSubORAMs(Config{BlockSize: faultBlock, NumLoadBalancers: 1, Lambda: 32}, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sys.Init(ids, make([]byte, n*faultBlock)); err != nil {
		t.Fatal(err)
	}
	for _, short := range []bool{true, false} {
		bad.short.Store(short)
		for k, err := range flushAsync(t, sys, ids) {
			if onBad := sys.SubORAMFor(k) == 2; short && onBad {
				if err == nil || !strings.Contains(err.Error(), "suboram 2") {
					t.Fatalf("key %d on the misshapen partition: err=%v", k, err)
				}
			} else if err != nil {
				t.Fatalf("key %d (short=%v): %v", k, short, err)
			}
		}
	}
}

// TestStageBDiagnostics checks the failure-path observability satellites:
// a failed partition's wall time is recorded (not left at zero) and its
// error carries the partition index.
func TestStageBDiagnostics(t *testing.T) {
	sys, flaky := newFlakySystem(t, 2, 20)
	flaky[1].fail.Store(true)
	flaky[1].failDelay = 10 * time.Millisecond

	keys := []uint64{}
	for k := uint64(0); k < 20; k++ {
		if sys.SubORAMFor(k) == 1 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		t.Fatal("no keys routed to partition 1")
	}
	outcome := flushAsync(t, sys, keys)
	for k, err := range outcome {
		if err == nil || !strings.Contains(err.Error(), "suboram 1") {
			t.Fatalf("key %d: err=%v, want partition-tagged error", k, err)
		}
	}
	stats := sys.LastEpochStats()
	if len(stats.SubORAMWall) != 2 {
		t.Fatalf("SubORAMWall: %v", stats.SubORAMWall)
	}
	if stats.SubORAMWall[1] < 10*time.Millisecond {
		t.Fatalf("failed partition wall time %v, want >= its 10ms stall", stats.SubORAMWall[1])
	}
}

// TestOverflowReturnsErrOverflow forces the Theorem-3 overflow event with a
// tiny security parameter and a key set aimed at one partition: every
// dropped request must fail with ErrOverflow — never hang, never return a
// silently wrong "not found".
func TestOverflowReturnsErrOverflow(t *testing.T) {
	const S = 2
	subs := make([]SubORAMClient, S)
	for i := range subs {
		subs[i] = suboram.New(suboram.Config{BlockSize: faultBlock})
	}
	sys, err := NewWithSubORAMs(Config{
		BlockSize: faultBlock, NumLoadBalancers: 1, Lambda: 1,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Collect distinct keys that all route to partition 0, overwhelming its
	// per-epoch batch capacity.
	var keys []uint64
	for k := uint64(0); len(keys) < 40 && k < 10_000; k++ {
		if sys.SubORAMFor(k) == 0 {
			keys = append(keys, k)
		}
	}
	n := len(keys)
	ids := append([]uint64(nil), keys...)
	data := make([]byte, n*faultBlock)
	for i := range ids {
		data[i*faultBlock] = 1
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	outcome := flushAsync(t, sys, keys)
	overflowed := 0
	for k, err := range outcome {
		switch {
		case err == nil:
		case errors.Is(err, ErrOverflow):
			overflowed++
		default:
			t.Fatalf("key %d: unexpected error %v", k, err)
		}
	}
	if overflowed == 0 {
		t.Fatalf("no overflow with Lambda=1 and %d keys on one partition; batch stats: %+v",
			n, sys.LastEpochStats())
	}
	if got := sys.TotalDropped(); got != uint64(overflowed) {
		t.Fatalf("TotalDropped=%d but %d requests got ErrOverflow", got, overflowed)
	}

	// The negligible event is survivable: the next epoch with a sane load
	// answers correctly.
	outcome = flushAsync(t, sys, keys[:4])
	for k, err := range outcome {
		if err != nil {
			t.Fatalf("key %d failed in post-overflow epoch: %v", k, err)
		}
	}
}

// newFailoverSystem builds a two-partition system over flaky partitions,
// loaded with keys 0..n-1 (key i holds byte i+1), whose failover hook
// promotes partition 1's healthy inner partition — standing in for a
// standby. The first failFirst hook attempts error, so the
// retry path runs; attempts counts every call.
func newFailoverSystem(t *testing.T, n int, failFirst int32, reg *telemetry.Registry) (*System, []*flakySub, *atomic.Int32, []uint64) {
	t.Helper()
	const S = 2
	flaky := make([]*flakySub, S)
	subs := make([]SubORAMClient, S)
	for i := range subs {
		flaky[i] = &flakySub{inner: suboram.New(suboram.Config{BlockSize: faultBlock})}
		subs[i] = flaky[i]
	}
	attempts := new(atomic.Int32)
	sys, err := NewWithSubORAMs(Config{
		BlockSize: faultBlock, NumLoadBalancers: 1, Lambda: 32,
		Telemetry: reg,
		Failover: func(part int, old SubORAMClient) (SubORAMClient, error) {
			if part != 1 {
				return nil, errors.New("failover for a healthy partition")
			}
			if attempts.Add(1) <= failFirst {
				return nil, errors.New("standby not ready yet")
			}
			return old.(*flakySub).inner, nil
		},
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	keys := make([]uint64, n)
	data := make([]byte, n*faultBlock)
	for i := range keys {
		keys[i] = uint64(i)
		data[i*faultBlock] = byte(i + 1)
	}
	if err := sys.Init(keys, data); err != nil {
		t.Fatal(err)
	}
	return sys, flaky, attempts, keys
}

// awaitFailover reads every key once an epoch until all answer and the
// system is healthy. An answer is an error or the key's own value, never
// anything else. The repair is asynchronous, and the swap precedes the
// health update, so an epoch can succeed on the standby a moment before
// Health counts the failover: both conditions are polled.
func awaitFailover(t *testing.T, sys *System, keys []uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		waits := make([]func() ([]byte, bool, error), len(keys))
		for i, k := range keys {
			w, err := sys.Submit(Request{Op: store.OpRead, Key: k})
			if err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
			waits[i] = w
		}
		sys.Flush()
		bad := 0
		for i, w := range waits {
			v, found, err := w()
			if err != nil {
				bad++
			} else if !found || v[0] != byte(keys[i]+1) {
				t.Fatalf("key %d: wrong answer v=%v found=%v", keys[i], v, found)
			}
		}
		if bad == 0 && sys.Health().Healthy() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never promoted the standby (health %+v)", sys.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recoveryHistogram returns the core_time_to_recovery snapshot, or nil.
func recoveryHistogram(snap telemetry.Snapshot) *telemetry.HistogramSnapshot {
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "core_time_to_recovery" {
			return &snap.Histograms[i]
		}
	}
	return nil
}

// TestFailoverPromotesStandby trips the automatic failover path: a
// partition failing 3 consecutive epochs invokes the hook, a
// failed first attempt is retried, and the promoted standby serves the
// partition's original data from then on.
func TestFailoverPromotesStandby(t *testing.T) {
	sys, flaky, attempts, keys := newFailoverSystem(t, 24, 1, nil)
	flaky[1].fail.Store(true)
	awaitFailover(t, sys, keys)
	h := sys.Health()
	if h.Failovers[1] < 1 {
		t.Fatalf("no failover recorded for partition 1: %+v", h)
	}
	if attempts.Load() < 2 {
		t.Fatalf("failed first failover attempt was not retried (attempts=%d)", attempts.Load())
	}
	if !h.Healthy() {
		t.Fatalf("system not healthy after promotion: %+v", h)
	}
	// The standby serves the partition's original contents.
	for _, k := range keys {
		if sys.SubORAMFor(k) != 1 {
			continue
		}
		v, found, err := func() ([]byte, bool, error) {
			w, err := sys.Submit(Request{Op: store.OpRead, Key: k})
			if err != nil {
				return nil, false, err
			}
			sys.Flush()
			return w()
		}()
		if err != nil || !found || v[0] != byte(k+1) {
			t.Fatalf("key %d after promotion: v=%v found=%v err=%v", k, v, found, err)
		}
	}
}

// TestFailoverAccounting pins the outage ledger core keeps where it detects
// the outage: a promotion that fails once and then succeeds is two repairs
// started, one failover of that partition, and one positive time-to-recovery
// observation, and the system is healthy afterwards.
func TestFailoverAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, flaky, attempts, keys := newFailoverSystem(t, 24, 1, reg)
	flaky[1].fail.Store(true)
	awaitFailover(t, sys, keys)
	h := sys.Health()
	if h.Failovers[0] != 0 || h.Failovers[1] != 1 {
		t.Fatalf("want exactly one failover, of partition 1: %+v", h)
	}
	if attempts.Load() != 2 {
		t.Fatalf("want a failed first attempt and a successful retry, got %d attempts", attempts.Load())
	}
	if !h.Healthy() {
		t.Fatalf("system not healthy after promotion: %+v", h)
	}
	snap := reg.Snapshot(0)
	if got := snap.Counters["core_repairs_started_total"]; got != 2 {
		t.Fatalf("core_repairs_started_total = %d, want 2", got)
	}
	if got := snap.Counters["core_failovers_total"]; got != 1 {
		t.Fatalf("core_failovers_total = %d, want 1", got)
	}
	if ttr := recoveryHistogram(snap); ttr == nil || ttr.Count != 1 || ttr.SumNS <= 0 {
		t.Fatalf("core_time_to_recovery = %+v, want one positive observation", ttr)
	}
}

// TestFailoverTelemetryMatchesHealth crashes a partition under a hook that
// promotes on its first try: no epoch answers a key wrongly while the
// partition is down, the system converges to healthy, and the telemetry
// export agrees exactly with core's own Health ledger — one recovery
// observation per failover, and repairs started minus failovers equal to the
// hook's failed attempts (none here).
func TestFailoverTelemetryMatchesHealth(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, flaky, attempts, keys := newFailoverSystem(t, 16, 0, reg)
	flaky[1].fail.Store(true)
	awaitFailover(t, sys, keys)
	h := sys.Health()
	var failovers uint64
	for _, f := range h.Failovers {
		failovers += f
	}
	if failovers < 1 {
		t.Fatalf("outage not accounted: %+v", h)
	}
	snap := reg.Snapshot(0)
	if got := snap.Counters["core_failovers_total"]; got != failovers {
		t.Fatalf("core_failovers_total = %d, Health counts %d failovers", got, failovers)
	}
	if got := snap.Counters["core_repairs_started_total"]; got != uint64(attempts.Load()) || got != failovers {
		t.Fatalf("core_repairs_started_total = %d, want %d hook calls, all successful (%d failovers)",
			got, attempts.Load(), failovers)
	}
	if ttr := recoveryHistogram(snap); ttr == nil || ttr.Count != failovers || ttr.SumNS <= 0 {
		t.Fatalf("core_time_to_recovery = %+v, want %d positive observations", ttr, failovers)
	}
}

// TestFailoverPromotesRestoredRemote closes the full §9 recovery loop over
// real sockets: a remote durable partition is killed mid-run, the detector
// trips, and the failover hook restarts the node from its sealed on-disk
// state (internal/persist recovery) at a fresh address. Acknowledged writes
// from before the crash must survive into the promoted replacement.
func TestFailoverPromotesRestoredRemote(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	dir := t.TempDir()
	opts := transport.Options{DialTimeout: 2 * time.Second, RPCTimeout: 2 * time.Second, MaxRetries: -1}

	startNode := func() (*faultnet.Listener, *persist.Durable, string, error) {
		dur, err := persist.NewDurable(dir, persist.Config{BlockSize: faultBlock}, func(scan suboram.BlockStore) persist.Partition {
			return suboram.New(suboram.Config{BlockSize: faultBlock, Store: scan})
		})
		if err != nil {
			return nil, nil, "", err
		}
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			dur.Close()
			return nil, nil, "", err
		}
		l := faultnet.WrapListener(raw, nil)
		go transport.ServeSubORAM(l, dur, platform, m, nil)
		return l, dur, raw.Addr().String(), nil
	}

	l1, dur1, addr1, err := startNode()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := transport.DialOptions(addr1, platform, m, opts)
	if err != nil {
		t.Fatal(err)
	}

	var promoted atomic.Int32
	sys, err := NewWithSubORAMs(Config{
		BlockSize: faultBlock, NumLoadBalancers: 1, Lambda: 32,
		Failover: func(part int, old SubORAMClient) (SubORAMClient, error) {
			if rc, ok := old.(*transport.RemoteSubORAM); ok {
				rc.Close()
			}
			dur1.Close() // the crashed node's WAL handle: release before reopening the dir
			l2, dur2, addr2, err := startNode()
			if err != nil {
				return nil, err
			}
			if !dur2.Recovered() {
				l2.Close()
				dur2.Close()
				return nil, errors.New("restarted node found no sealed state")
			}
			t.Cleanup(func() { l2.Close(); dur2.Close() })
			repl, err := transport.DialOptions(addr2, platform, m, opts)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { repl.Close() })
			promoted.Add(1)
			return repl, nil
		},
	}, []SubORAMClient{r1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	ids := []uint64{1, 2, 3, 4}
	if err := sys.Init(ids, make([]byte, len(ids)*faultBlock)); err != nil {
		t.Fatal(err)
	}
	w, err := sys.Submit(Request{Op: store.OpWrite, Key: 3, Value: []byte("durable-v1")})
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if _, _, err := w(); err != nil {
		t.Fatal(err)
	}

	// Crash the node: listener and every live connection die at once.
	l1.Kill()

	deadline := time.Now().Add(20 * time.Second)
	for {
		outcome := flushAsync(t, sys, ids)
		bad := 0
		for _, err := range outcome {
			if err != nil {
				bad++
			}
		}
		if bad == 0 && promoted.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored remote never promoted (health %+v)", sys.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	h := sys.Health()
	if h.Failovers[0] < 1 || !h.Healthy() {
		t.Fatalf("health after restored-remote failover: %+v", h)
	}
	// The pre-crash acknowledged write survived sealed recovery into the
	// replacement node.
	rw, err := sys.Submit(Request{Op: store.OpRead, Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	v, found, err := rw()
	if err != nil || !found || !bytes.HasPrefix(v, []byte("durable-v1")) {
		t.Fatalf("pre-crash write lost across failover: %q %v %v", v, found, err)
	}
}

// TestSubmitCloseRace hammers concurrent submits against Close: every
// accepted request must receive exactly one reply (value or ErrClosed) —
// none may be stranded in a queue nobody will flush.
func TestSubmitCloseRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		sys, err := NewWithSubORAMs(Config{
			BlockSize: faultBlock, NumLoadBalancers: 2,
			Lambda: 32, Ticks: every(t, time.Millisecond),
		}, localSubs(2))
		if err != nil {
			t.Fatal(err)
		}
		ids := []uint64{0, 1, 2, 3}
		if err := sys.Init(ids, make([]byte, len(ids)*faultBlock)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					wait, err := sys.Submit(Request{Op: store.OpRead, Key: uint64(g % len(ids))})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("submit: %v", err)
						}
						return
					}
					// The reply must always arrive; a request accepted after
					// the final drain would block here forever.
					if _, _, err := wait(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("wait: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		sys.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("request stranded: submit/Close race left a queued request without a reply")
		}
	}
}
