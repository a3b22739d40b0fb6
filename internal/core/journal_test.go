package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// journalCluster models what survives a root crash: the partitions, each
// behind the delivery window its partition server runs it in, and the
// journal directory. Every root incarnation delivers to the same windows,
// exactly like a standby process dialing the same servers.
type journalCluster struct {
	subs []*transport.Window
	dir  string
}

func newJournalCluster(t *testing.T, S int) *journalCluster {
	t.Helper()
	c := &journalCluster{dir: t.TempDir()}
	for i := 0; i < S; i++ {
		c.subs = append(c.subs, transport.NewWindow(suboram.New(suboram.Config{BlockSize: testBlock})))
	}
	return c
}

// tagged returns a root incarnation's clients: the cluster's windows.
func (c *journalCluster) tagged() []SubORAMClient {
	clients := make([]SubORAMClient, len(c.subs))
	for i := range c.subs {
		clients[i] = c.subs[i]
	}
	return clients
}

// root starts one root incarnation over the cluster with up to depth
// epochs in flight. crash is the simulated-crash schedule (nil = never).
func (c *journalCluster) root(t *testing.T, depth int, crash func(point string, epoch uint64) bool) *System {
	t.Helper()
	sys, err := NewWithSubORAMs(Config{
		BlockSize:        testBlock,
		NumLoadBalancers: 2,
		Lambda:           32,
		Ticks:            ticksFor(depth),
		JournalDir:       c.dir,
	}, c.tagged())
	if err != nil {
		t.Fatal(err)
	}
	return sys.setCrashHook(crash)
}

// TestUnjournaledRootsTagTheirOwnStreams: a root without a journal draws
// its delivery stream at random, so a second root over the same partition
// servers, its epoch numbers starting again at 1, is not answered from the
// delivery window the first one filled.
func TestUnjournaledRootsTagTheirOwnStreams(t *testing.T) {
	c := newJournalCluster(t, 1)
	for i, val := range []string{"first", "second"} {
		sys, err := NewWithSubORAMs(Config{BlockSize: testBlock, Lambda: 32, Ticks: every(t, time.Millisecond)}, c.tagged())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 { // Init clears the window; the second root must not
			if err := sys.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err = write(sys, 1, []byte(val))
		v, _, rerr := read(sys, 1)
		sys.Close()
		if err != nil || rerr != nil || trimmed(v) != val {
			t.Fatalf("root %d wrote %q (%v), read %q (%v)", i+1, val, err, v, rerr)
		}
	}
}

// testTicks maps each test-owned epoch source, as an engine's Config.Ticks
// holds it, to its send side.
var testTicks sync.Map

// ticksFor is the Config.Ticks that runs the engine at depth D: none for
// D = 1, where Flush runs every epoch; for D = 2 a channel only step ticks.
func ticksFor(depth int) <-chan time.Time {
	if depth == 1 {
		return nil
	}
	ch := make(chan time.Time)
	testTicks.Store((<-chan time.Time)(ch), ch)
	return ch
}

// step runs one epoch on sys the way its engine takes them. A Flush-driven
// engine runs it in Flush. A test-ticked engine (ticksFor) gets one tick,
// which its tick loop runs exactly as it runs a production ticker's; step
// returns once that epoch is dispatched and at most D−1 epochs are in
// flight, or the root is down.
func step(sys *System) {
	ch, ok := testTicks.Load(sys.cfg.Ticks)
	if !ok {
		sys.Flush()
		return
	}
	e := staged(sys)
	select {
	case ch.(chan time.Time) <- time.Now():
	case <-sys.closed:
		return
	}
	for staged(sys) == e && !sys.Crashed() {
		time.Sleep(50 * time.Microsecond)
	}
	sys.settle(sys.depth - 1)
}

// staged is the last epoch stage A has taken (and, once epochMu is free,
// journaled and dispatched, or failed).
func staged(sys *System) uint64 {
	sys.epochMu.Lock()
	defer sys.epochMu.Unlock()
	return sys.epoch
}

// atDepths runs f at the depths the crash-safety argument must cover: one
// epoch at a time, run by Flush, and the ticked engine's two in flight.
func atDepths(t *testing.T, f func(t *testing.T, depth int)) {
	for _, depth := range []int{1, tickerDepth} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) { f(t, depth) })
	}
}

func (c *journalCluster) initObjects(t *testing.T, sys *System, n int) {
	t.Helper()
	ids := make([]uint64, n)
	data := make([]byte, n*testBlock)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i)
		copy(data[i*testBlock:], []byte(fmt.Sprintf("init-%d", i)))
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
}

// crashOnceAt returns a schedule that crashes the first time the named
// point is reached at or after the given epoch.
func crashOnceAt(point string, epoch uint64) func(string, uint64) bool {
	fired := false
	return func(p string, e uint64) bool {
		if fired || p != point || e < epoch {
			return false
		}
		fired = true
		return true
	}
}

// runIdemWrite submits an idempotent write, runs the epoch, and returns
// the outcome.
func runIdemWrite(t *testing.T, sys *System, id, key uint64, val string) ([]byte, bool, error) {
	t.Helper()
	wait, err := sys.Submit(Request{Op: store.OpWrite, Key: key, Value: []byte(val), ID: id})
	if err != nil {
		return nil, false, err
	}
	step(sys)
	return wait()
}

// TestJournalEpochContinuation: a successor continues the predecessor's
// epoch sequence instead of restarting at 1 — the partitions' fixed-order
// linearizability depends on monotone epochs.
func TestJournalEpochContinuation(t *testing.T) {
	atDepths(t, testJournalEpochContinuation)
}

func testJournalEpochContinuation(t *testing.T, depth int) {
	c := newJournalCluster(t, 2)
	r1 := c.root(t, depth, nil)
	c.initObjects(t, r1, 16)
	for i := 0; i < 3; i++ {
		step(r1)
	}
	r1.Close()

	r2 := c.root(t, depth, nil)
	step(r2)
	r2.Close() // completes the epoch step may have left in flight
	if ep := r2.LastEpochStats().Epoch; ep != 4 {
		t.Fatalf("successor's first epoch is %d, want 4", ep)
	}
}

// TestReplyWindowStopsReExecution: within one incarnation, a second call
// with an already-answered ID returns the parked answer without running
// another epoch.
func TestReplyWindowStopsReExecution(t *testing.T) {
	c := newJournalCluster(t, 2)
	sys := c.root(t, 1, nil)
	defer sys.Close()
	c.initObjects(t, sys, 16)

	prev, _, err := runIdemWrite(t, sys, 30, 3, "first")
	if err != nil || trimmed(prev) != "init-3" {
		t.Fatalf("first write: prev=%q err=%v", trimmed(prev), err)
	}
	// Same ID, different payload, no Flush: answered from the window.
	prev2, found, err := do(sys, Request{Op: store.OpWrite, Key: 3, Value: []byte("second"), ID: 30})
	if err != nil || !found {
		t.Fatalf("retry: found=%v err=%v", found, err)
	}
	if trimmed(prev2) != "init-3" {
		t.Fatalf("retry observed previous %q, want the original answer %q", trimmed(prev2), "init-3")
	}
	// The duplicate never executed.
	wait, err := sys.Submit(Request{Op: store.OpRead, Key: 3, ID: 31})
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	got, _, err := wait()
	if err != nil || trimmed(got) != "first" {
		t.Fatalf("read: %q err=%v (duplicate write executed?)", trimmed(got), err)
	}

	// Parked values are private copies: scribbling over a returned value
	// must not corrupt a later retry's answer.
	for i := range prev2 {
		prev2[i] = 0xee
	}
	prev3, _, err := do(sys, Request{Op: store.OpWrite, Key: 3, Value: []byte("third"), ID: 30})
	if err != nil || trimmed(prev3) != "init-3" {
		t.Fatalf("second retry: prev=%q err=%v", trimmed(prev3), err)
	}
	if bytes.Contains(prev3, []byte{0xee}) {
		t.Fatal("reply window shares storage with delivered values")
	}
}

// TestCrashKillSwitch: the external Crash() hook behaves like the in-epoch
// crash points — silent stop, ErrRootDown on submit, successor replays
// nothing (no epoch was in flight).
func TestCrashKillSwitch(t *testing.T) {
	atDepths(t, testCrashKillSwitch)
}

func testCrashKillSwitch(t *testing.T, depth int) {
	c := newJournalCluster(t, 2)
	r1 := c.root(t, depth, nil)
	c.initObjects(t, r1, 16)
	if _, _, err := runIdemWrite(t, r1, 40, 2, "x"); err != nil {
		t.Fatal(err)
	}
	r1.Crash()
	if !r1.Crashed() {
		t.Fatal("Crash did not mark the root crashed")
	}
	if _, _, err := read(r1, 2); !errors.Is(err, ErrRootDown) {
		t.Fatalf("submit after Crash returned %v, want ErrRootDown", err)
	}
	r1.Close()

	r2 := c.root(t, depth, nil)
	defer r2.Close()
	wait, err := r2.Submit(Request{Op: store.OpRead, Key: 2, ID: 41})
	if err != nil {
		t.Fatal(err)
	}
	step(r2)
	got, _, err := wait()
	if err != nil || trimmed(got) != "x" {
		t.Fatalf("successor read: %q err=%v", trimmed(got), err)
	}
}

// TestCrashResolvesEveryWait: a crashed root answers nothing, so every
// wait on it — untracked (ID 0) included — returns ErrRootDown instead of
// blocking: a request queued before Crash(), and requests whose epoch is in
// flight across a "dispatch" crash (the partitions applied it, no reply
// left the root).
func TestCrashResolvesEveryWait(t *testing.T) {
	atDepths(t, testCrashResolvesEveryWait)
}

func testCrashResolvesEveryWait(t *testing.T, depth int) {
	c := newJournalCluster(t, 2)
	r1 := c.root(t, depth, nil)
	c.initObjects(t, r1, 16)
	wait, err := r1.Submit(Request{Op: store.OpRead, Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1.Crash()
	expectRootDown(t, "request queued before Crash", wait)
	r1.Close()

	r2 := c.root(t, depth, crashOnceAt("dispatch", 0))
	defer r2.Close()
	var waits []func() ([]byte, bool, error)
	for key := uint64(0); key < 4; key++ {
		for _, r := range []Request{{Op: store.OpRead, Key: key}, {Op: store.OpWrite, Key: key + 8, Value: []byte("w")}} {
			wait, err := r2.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, wait)
		}
	}
	step(r2)
	for _, wait := range waits {
		expectRootDown(t, "request in flight across a dispatch crash", wait)
	}
	if !r2.Crashed() {
		t.Fatal("root did not crash at the dispatch point")
	}
}

// expectRootDown fails unless wait returns ErrRootDown within a deadline
// far above any epoch here, race detector included.
func expectRootDown(t *testing.T, what string, wait func() ([]byte, bool, error)) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRootDown) {
			t.Fatalf("%s: wait returned %v, want ErrRootDown", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: wait still blocked 10s after the root crashed", what)
	}
}

// TestJournalUntaggedIDZero: id 0 keeps plain at-least-once semantics —
// never parked, never deduplicated.
func TestJournalUntaggedIDZero(t *testing.T) {
	c := newJournalCluster(t, 2)
	sys := c.root(t, 1, nil)
	defer sys.Close()
	c.initObjects(t, sys, 8)

	if _, _, err := runIdemWrite(t, sys, 0, 1, "a"); err != nil {
		t.Fatal(err)
	}
	// A second id-0 write executes normally (previous is "a", not parked).
	prev, _, err := runIdemWrite(t, sys, 0, 1, "b")
	if err != nil || trimmed(prev) != "a" {
		t.Fatalf("second id-0 write: prev=%q err=%v", trimmed(prev), err)
	}
}

// TestJournaledEpochsKeepPlainAPI: the journal must not disturb an
// untracked (ID 0) request in the same deployment.
func TestJournaledEpochsKeepPlainAPI(t *testing.T) {
	c := newJournalCluster(t, 3)
	sys := c.root(t, 1, nil)
	defer sys.Close()
	c.initObjects(t, sys, 64)

	wait, err := sys.Submit(Request{Op: store.OpRead, Key: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if v, found, err := wait(); err != nil || !found || trimmed(v) != "init-12" {
		t.Fatalf("plain read: %q found=%v err=%v", trimmed(v), found, err)
	}
}

// TestJournalReplayedResponsesCopied guards the Window's arena
// interaction: a replayed grouped response must be an independent copy, so
// the replaying root's stage-C release cannot corrupt the window.
func TestJournalReplayedResponsesCopied(t *testing.T) {
	atDepths(t, testJournalReplayedResponsesCopied)
}

func testJournalReplayedResponsesCopied(t *testing.T, depth int) {
	c := newJournalCluster(t, 2)
	r1 := c.root(t, depth, crashOnceAt("dispatch", 2))
	c.initObjects(t, r1, 16)
	if _, _, err := runIdemWrite(t, r1, 50, 4, "val-a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runIdemWrite(t, r1, 51, 4, "val-b"); !errors.Is(err, ErrRootDown) {
		t.Fatalf("want ErrRootDown, got %v", err)
	}
	r1.Close()

	// Two successive promotions over the same journal: if the first
	// replay's storage handling corrupted the caches or the journal, the
	// second would return garbage.
	r2 := c.root(t, depth, nil)
	if prev, _, err := do(r2, Request{Op: store.OpWrite, Key: 4, Value: []byte("val-b"), ID: 51}); err != nil || trimmed(prev) != "val-a" {
		t.Fatalf("first promotion retry: prev=%q err=%v", trimmed(prev), err)
	}
	r2.Close()

	r3 := c.root(t, depth, nil)
	defer r3.Close()
	wait, err := r3.Submit(Request{Op: store.OpRead, Key: 4, ID: 52})
	if err != nil {
		t.Fatal(err)
	}
	step(r3)
	got, _, err := wait()
	if err != nil || trimmed(got) != "val-b" {
		t.Fatalf("second promotion read: %q err=%v", trimmed(got), err)
	}
}

// TestJournalOverflowKeysNotParked: a request dropped by Theorem-3
// overflow is answered with ErrOverflow, which must never enter the reply
// window (a retry should re-execute it).
func TestJournalOverflowKeysNotParked(t *testing.T) {
	w := newReplyWindow(4)
	w.put(1, result{err: ErrOverflow})
	if _, ok := w.get(1); ok {
		t.Fatal("error result parked in reply window")
	}
	w.put(2, result{value: []byte("ok"), found: true})
	if r, ok := w.get(2); !ok || string(r.value) != "ok" {
		t.Fatal("successful result not parked")
	}
	// Bounded eviction.
	for id := uint64(3); id <= 6; id++ {
		w.put(id, result{found: true})
	}
	if _, ok := w.get(2); ok {
		t.Fatal("window not bounded")
	}
	if _, ok := w.get(0); ok {
		t.Fatal("id 0 resolvable")
	}
}

// TestJournalRouteKeyPinned: both incarnations must route every key to the
// same partition (the journal directory pins the routing key); otherwise a
// replayed batch would scan the wrong partition.
func TestJournalRouteKeyPinned(t *testing.T) {
	c := newJournalCluster(t, 4)
	r1 := c.root(t, 1, nil)
	c.initObjects(t, r1, 32)
	want := make([]int, 32)
	for k := 0; k < 32; k++ {
		want[k] = r1.SubORAMFor(uint64(k))
	}
	r1.Close()
	r2 := c.root(t, 1, nil)
	defer r2.Close()
	for k := 0; k < 32; k++ {
		if got := r2.SubORAMFor(uint64(k)); got != want[k] {
			t.Fatalf("key %d routed to %d by successor, %d by predecessor", k, got, want[k])
		}
	}
}

// TestJournalShapeMismatchFailsOpen: an epoch left open at L = 2, S = 2,
// λ = 32 cannot be rebuilt by a root of another shape. Opening fails,
// naming both shapes, instead of completing the epoch unreplayed — which
// would let the client's retry apply its write a second time. A root of the
// journal's own shape then drains it: the retry gets the parked answer.
func TestJournalShapeMismatchFailsOpen(t *testing.T) {
	c := newJournalCluster(t, 2)
	r1 := c.root(t, 1, crashOnceAt("journal", 0))
	c.initObjects(t, r1, 16)
	wait, err := r1.Submit(Request{Op: store.OpWrite, Key: 2, Value: []byte("x"), ID: 50})
	if err != nil {
		t.Fatal(err)
	}
	r1.Flush()
	expectRootDown(t, "write journaled before the crash", wait)
	r1.Close()

	for _, shape := range []struct {
		L, S, lambda int
		want         string
	}{{1, 2, 32, "L=1 S=2 block=32 λ=32"}, {2, 1, 32, "L=2 S=1 block=32 λ=32"}, {2, 2, 64, "L=2 S=2 block=32 λ=64"}} {
		_, err := NewWithSubORAMs(Config{
			BlockSize: testBlock, NumLoadBalancers: shape.L, Lambda: shape.lambda, JournalDir: c.dir,
		}, c.tagged()[:shape.S])
		if err == nil || !strings.Contains(err.Error(), "L=2 S=2 block=32 λ=32") || !strings.Contains(err.Error(), shape.want) {
			t.Fatalf("open at %s over an epoch journaled at L=2 S=2 block=32 λ=32: err = %v", shape.want, err)
		}
	}

	r2 := c.root(t, 1, nil)
	defer r2.Close()
	got, _, err := runIdemWrite(t, r2, 50, 2, "x")
	if err != nil || trimmed(got) != "init-2" {
		t.Fatalf("retry after the drain: %q err=%v, want the parked answer \"init-2\"", trimmed(got), err)
	}
	if wait, err = r2.Submit(Request{Op: store.OpRead, Key: 2}); err != nil {
		t.Fatal(err)
	}
	r2.Flush()
	if got, _, err := wait(); err != nil || trimmed(got) != "x" {
		t.Fatalf("read after the drain: %q err=%v", trimmed(got), err)
	}
}

var _ = store.OpRead // keep the import when build tags trim tests

// TestJournalCompleteFailureSurfaces: a journal whose compaction cannot run
// (a directory squats on the checkpoint's temporary name) used to lose the
// error in journalComplete and then fail every later epoch with "journal
// closed". It now keeps serving — every epoch answered, the journal still
// appendable — and the failures are counted in Health and on /metrics.
func TestJournalCompleteFailureSurfaces(t *testing.T) {
	c := newJournalCluster(t, 2)
	reg := telemetry.NewRegistry()
	sys, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: 1, Lambda: 32, JournalDir: c.dir, Telemetry: reg,
	}, c.tagged())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c.initObjects(t, sys, 16)
	if err := os.Mkdir(filepath.Join(c.dir, "journal.tmp"), 0o700); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 70; e++ { // compaction is due after 64 epochs
		if _, _, err := runIdemWrite(t, sys, e, e%16, fmt.Sprintf("v%d", e)); err != nil {
			t.Fatalf("epoch %d after %d journal errors: %v", e, sys.Health().JournalErrors, err)
		}
	}
	sys.Close() // stage C's journal completion runs after the reply
	errs := sys.Health().JournalErrors
	if errs == 0 {
		t.Fatal("failed compactions left Health().JournalErrors at 0")
	}
	if got := reg.Counter("persist_journal_errors_total").Value(); got != errs {
		t.Fatalf("persist_journal_errors_total = %d, Health().JournalErrors = %d", got, errs)
	}
}

// TestJournalCrashWithEpochsInFlight: on a ticked engine (D = 2) the root
// crashes at the "dispatch" point of epoch 2 while epoch 3 is already
// dispatched behind it. A dead root answers neither; the successor replays
// both in order, and every tracked request is answered exactly once — from
// the successor's reply window, each write observing its predecessor's
// value, so nothing was applied twice.
func TestJournalCrashWithEpochsInFlight(t *testing.T) {
	c := newJournalCluster(t, 2)
	hold := make(chan struct{})
	journaled3 := make(chan struct{})
	r1 := c.root(t, tickerDepth, func(point string, epoch uint64) bool {
		switch {
		case point == "journal" && epoch == 3:
			close(journaled3)
		case point == "dispatch" && epoch == 2:
			<-hold // keep epoch 2 at its dispatch point until 3 is out
			return true
		}
		return false
	})
	c.initObjects(t, r1, 16)
	if _, _, err := runIdemWrite(t, r1, 60, 3, "v0"); err != nil {
		t.Fatal(err)
	}
	var waits []func() ([]byte, bool, error)
	flushed := make(chan struct{})
	for e := 1; e <= 2; e++ { // epochs 2, 3
		w, err := r1.Submit(Request{Op: store.OpWrite, Key: 3, Value: []byte(fmt.Sprintf("v%d", e)), ID: uint64(60 + e)})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
		if e == 1 {
			step(r1) // returns once dispatched: one epoch in flight
			continue
		}
		// Epoch 3's step waits for epoch 2 to leave the pipeline, which it
		// does only by crashing: run it aside.
		go func() {
			step(r1)
			close(flushed)
		}()
	}
	<-journaled3
	r1.epochMu.Lock() // epoch 3 is dispatched under the lock it holds
	r1.epochMu.Unlock()
	close(hold)
	<-flushed
	for e, w := range waits {
		if _, _, err := w(); !errors.Is(err, ErrRootDown) {
			t.Fatalf("epoch %d in flight at the crash returned %v, want ErrRootDown", e+2, err)
		}
	}
	r1.Close()

	r2 := c.root(t, tickerDepth, nil)
	defer r2.Close()
	for e := 1; e <= 2; e++ {
		id := uint64(60 + e)
		if _, ok := r2.replyWin.get(id); !ok {
			t.Fatalf("request %d not answered by the successor's replay", id)
		}
		prev, found, err := do(r2, Request{Op: store.OpWrite, Key: 3, Value: []byte(fmt.Sprintf("v%d", e)), ID: id})
		if want := fmt.Sprintf("v%d", e-1); err != nil || !found || trimmed(prev) != want {
			t.Fatalf("retry %d: prev=%q found=%v err=%v, want prev=%q", id, trimmed(prev), found, err, want)
		}
	}
	wait, err := r2.Submit(Request{Op: store.OpRead, Key: 3, ID: 70})
	if err != nil {
		t.Fatal(err)
	}
	step(r2)
	if got, _, err := wait(); err != nil || trimmed(got) != "v2" {
		t.Fatalf("read after replay: %q err=%v", trimmed(got), err)
	}
}

// TestJournalReplaySharesLiveRules: a replayed epoch runs through the live
// stage B and stage C, so the live rules decide what it answers. The
// crashed epoch holds a Theorem-3 victim (α+1 distinct keys pinned to
// partition 0), and the successor's partition 1 fails during the replay:
// only healthy, undropped answers are parked, the failure is counted in
// Health(), and the replayed epoch's spans are on /trace/epochs.
func TestJournalReplaySharesLiveRules(t *testing.T) {
	const S, R, objects = 3, 96, 512
	c := newJournalCluster(t, S)
	open := func(crash func(string, uint64) bool, reg *telemetry.Registry, clients []SubORAMClient) *System {
		t.Helper()
		sys, err := NewWithSubORAMs(Config{
			BlockSize: testBlock, NumLoadBalancers: 1, Lambda: 32,
			JournalDir: c.dir, Telemetry: reg,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		return sys.setCrashHook(crash)
	}
	r1 := open(crashOnceAt("journal", 1), nil, c.tagged())
	c.initObjects(t, r1, objects)

	lb := r1.lbs[0].lb
	alpha := lb.BatchSize(R)
	byPart := make([][]uint64, S)
	for k := uint64(0); k < objects; k++ {
		byPart[lb.SubORAMFor(k)] = append(byPart[lb.SubORAMFor(k)], k)
	}
	if alpha+3 > R || alpha+1 > len(byPart[0]) {
		t.Fatalf("shape cannot pin α+1 keys: α=%d R=%d, %d keys on partition 0", alpha, R, len(byPart[0]))
	}
	keys := append([]uint64(nil), byPart[0][:alpha+1]...)
	for i := 0; len(keys) < R; i++ {
		keys = append(keys, byPart[1+i%2][i/2])
	}
	var waits []func() ([]byte, bool, error)
	for j, k := range keys {
		w, err := r1.Submit(Request{Op: store.OpRead, Key: k, ID: uint64(100 + j)})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	r1.Flush()
	for _, w := range waits {
		if _, _, err := w(); !errors.Is(err, ErrRootDown) {
			t.Fatalf("crashed epoch returned %v, want ErrRootDown", err)
		}
	}
	r1.Close()

	reg := telemetry.NewRegistry()
	clients := c.tagged()
	failing := &flakySub{inner: clients[1]}
	failing.fail.Store(true)
	clients[1] = failing
	r2 := open(nil, reg, clients)
	defer r2.Close()

	parked := make([]int, S)
	for j, k := range keys {
		r, ok := r2.replyWin.get(uint64(100 + j))
		if !ok {
			continue
		}
		parked[lb.SubORAMFor(k)]++
		if want := fmt.Sprintf("init-%d", k); !r.found || trimmed(r.value) != want {
			t.Fatalf("key %d parked %q found=%v, want %q", k, trimmed(r.value), r.found, want)
		}
	}
	want := []int{alpha, 0, 0}
	for _, k := range keys[alpha+1:] {
		if lb.SubORAMFor(k) == 2 {
			want[2]++
		}
	}
	if parked[0] != want[0] || parked[1] != 0 || parked[2] != want[2] {
		t.Fatalf("parked per partition %v, want %v (α=%d: one victim, partition 1 failed)", parked, want, alpha)
	}
	if got := r2.TotalDropped(); got != 1 {
		t.Fatalf("replay counted %d Theorem-3 drops, want 1", got)
	}
	if h := r2.Health(); h.TotalFailures[0] != 0 || h.TotalFailures[1] != 1 || h.TotalFailures[2] != 0 {
		t.Fatalf("replay failures not counted per partition: %v", h.TotalFailures)
	}
	if st := r2.LastEpochStats(); st.Epoch != 1 || st.Requests != R {
		t.Fatalf("replayed epoch stats: %+v", st)
	}

	rec := httptest.NewRecorder()
	telemetry.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/trace/epochs", nil))
	var spans []telemetry.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	type spanID struct {
		stage string
		part  int
	}
	seen := map[spanID]bool{}
	for _, sp := range spans {
		if sp.Epoch == 1 {
			seen[spanID{sp.Stage, sp.Part}] = true
		}
	}
	for _, id := range []spanID{
		{"stage_b_suboram", 0}, {"stage_b_suboram", 1}, {"stage_b_suboram", 2},
		{"stage_c_match", 0}, {"epoch", -1},
	} {
		if !seen[id] {
			t.Fatalf("replayed epoch has no %s span for part %d on /trace/epochs: %+v", id.stage, id.part, spans)
		}
	}
}
