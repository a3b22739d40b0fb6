package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopy/internal/enclave"
	"snoopy/internal/faultnet"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// TestEpochGaugeMonotoneUnderLateStageC pins the fix for the epoch gauge
// rollback: stage C of epoch N-1 can finish after stage C of epoch N when
// epochs overlap, and its gauge update must not drag the published epoch
// backwards. The stats path has carried an `Epoch >=` guard since
// overlapped epochs landed; the gauge path used an unguarded Set.
func TestEpochGaugeMonotoneUnderLateStageC(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys := startSystem(t, Config{
		Ticks: ticksFor(tickerDepth), Telemetry: reg,
	}, localSubs(2), 16)

	var waits []func() ([]byte, bool, error)
	for e := 0; e < 12; e++ {
		w, err := sys.Submit(Request{Op: store.OpRead, Key: uint64(e % 16)})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
		step(sys)
	}
	for _, w := range waits {
		if _, _, err := w(); err != nil {
			t.Fatal(err)
		}
	}

	g := reg.Gauge("core_epoch")
	top := g.Value()
	if top != int64(sys.LastEpochStats().Epoch) {
		t.Fatalf("gauge %d does not match last epoch %d", top, sys.LastEpochStats().Epoch)
	}
	// A straggler stage C publishing an older epoch id must be a no-op on
	// the stored value (this is exactly the call stageCStats makes).
	sys.telEpoch.SetMax(top - 3)
	if got := g.Value(); got != top {
		t.Fatalf("late stage C rolled the epoch gauge back: %d -> %d", top, got)
	}
	sys.telEpoch.SetMax(top + 1)
	if got := g.Value(); got != top+1 {
		t.Fatalf("gauge refused a newer epoch: %d", got)
	}
}

// stallSub wedges Deliver on a channel, simulating a partition that is
// alive but not making progress. entered (buffered) signals each wedged call;
// calls counts every call.
type stallSub struct {
	inner   SubORAMClient
	stall   atomic.Bool
	calls   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func newStallSub() *stallSub {
	return &stallSub{
		inner:   suboram.New(suboram.Config{BlockSize: testBlock}),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (s *stallSub) Init(ids []uint64, data []byte) error { return s.inner.Init(ids, data) }

func (s *stallSub) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	s.calls.Add(1)
	if s.stall.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.inner.Deliver(tag, reqs)
}

// TestFlushBlockedOnDepthUnblocksOnClose pins the Flush/Close liveness
// contract at depth 1, where Flush returns only once its epoch has replied:
// a Flush waiting on its own wedged epoch and a Flush waiting for the only
// pipeline slot both observe Close. The undispatched epoch's requests fail
// with ErrClosed instead of blocking forever on an un-cancellable send;
// Close returns once the wedged partition is released, and the dispatched
// epoch still answers. On a ticked engine, a Flush waiting for a tick
// observes Close and Crash.
func TestFlushBlockedOnDepthUnblocksOnClose(t *testing.T) {
	stalled := newStallSub()
	subs := []SubORAMClient{stalled, suboram.New(suboram.Config{BlockSize: testBlock})}
	sys, err := NewWithSubORAMs(Config{BlockSize: testBlock, NumLoadBalancers: 1, Lambda: 32}, subs)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2, 3, 4}
	if err := sys.Init(ids, make([]byte, len(ids)*testBlock)); err != nil {
		t.Fatal(err)
	}
	flushAsync := func() chan struct{} {
		done := make(chan struct{})
		go func() {
			sys.Flush()
			close(done)
		}()
		return done
	}
	resolve := func(w func() ([]byte, bool, error)) chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := w()
			done <- err
		}()
		return done
	}

	// Epoch 1 takes the only pipeline slot and wedges in stage B; its Flush
	// waits for the epoch to reply.
	stalled.stall.Store(true)
	w1, err := sys.Submit(Request{Op: store.OpRead, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	flushed1 := flushAsync()
	<-stalled.entered

	// Epoch 2's Flush blocks waiting for the slot.
	w2, err := sys.Submit(Request{Op: store.OpRead, Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	flushed2 := flushAsync()
	select {
	case <-flushed1:
		t.Fatal("depth-1 Flush returned before its epoch replied")
	case <-flushed2:
		t.Fatal("Flush did not block with the pipeline full")
	case <-time.After(50 * time.Millisecond):
	}

	// Close unblocks both Flushes; the waiting epoch's request fails with
	// ErrClosed rather than hanging.
	closed := make(chan struct{})
	go func() {
		sys.Close()
		close(closed)
	}()
	done2 := resolve(w2)
	for name, ch := range map[string]chan struct{}{"wedged epoch's Flush": flushed1, "blocked Flush": flushed2} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never observed Close", name)
		}
	}
	select {
	case err := <-done2:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Flush's request got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request of the blocked Flush never resolved")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a dispatched epoch wedged in stage B")
	case <-time.After(50 * time.Millisecond):
	}

	// Release the wedged partition: the dispatched epoch drains through
	// Close and its request still completes.
	stalled.stall.Store(false)
	close(stalled.release)
	select {
	case err := <-resolve(w1):
		if err != nil {
			t.Fatalf("dispatched epoch should complete through Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatched epoch's request never resolved")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}

	// On a ticked engine, a Flush waiting for a tick that never comes
	// returns once the system closes or crashes.
	for _, stop := range []func(*System){(*System).Close, (*System).Crash} {
		sys = startSystem(t, Config{Ticks: make(chan time.Time)}, localSubs(2), 4)
		flushed := flushAsync()
		select {
		case <-flushed:
			t.Fatal("Flush on a ticked engine returned with no tick")
		case <-time.After(20 * time.Millisecond):
		}
		stop(sys)
		select {
		case <-flushed:
		case <-time.After(5 * time.Second):
			t.Fatal("Flush waiting for a tick never observed Close or Crash")
		}
	}
}

// tagLog records the epoch of every delivery its partition receives.
type tagLog struct {
	SubORAMClient
	mu     sync.Mutex
	epochs []uint64
}

func (l *tagLog) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	l.mu.Lock()
	l.epochs = append(l.epochs, tag.Epoch)
	l.mu.Unlock()
	return l.SubORAMClient.Deliver(tag, reqs)
}

// TestTickerStoreHasOneEpochSource: a ticked engine starts an epoch on a
// tick and on nothing else. While the test sends k ticks, several
// goroutines make m Flush calls, most of them between ticks. Every
// partition receives exactly k deliveries, tagged with the ticks' epochs
// 1..k, and every Flush returns only once the epoch of the first tick after
// the call has replied, so the request its caller submitted before it is
// answered.
func TestTickerStoreHasOneEpochSource(t *testing.T) {
	const flushers, rounds = 3, 4 // m = 12
	logs := []*tagLog{{SubORAMClient: localSubs(1)[0]}, {SubORAMClient: localSubs(1)[0]}}
	ticks := make(chan time.Time)
	sys := startSystem(t, Config{Ticks: ticks}, []SubORAMClient{logs[0], logs[1]}, 16)

	var wg sync.WaitGroup
	for g := 0; g < flushers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64(g*rounds + i)
				w, err := sys.Submit(Request{Op: store.OpRead, Key: key})
				if err != nil {
					t.Error(err)
					return
				}
				// The first tick received after the call runs an epoch
				// later than every one stage A has already taken.
				after := staged(sys)
				sys.Flush()
				if got := sys.LastEpochStats().Epoch; got <= after {
					t.Errorf("Flush returned with epoch %d replied; epoch %d was staged at the call", got, after)
				}
				if v, found, err := w(); err != nil || !found || trimmed(v) != fmt.Sprintf("init-%d", key) {
					t.Errorf("read %d before Flush: %q %v %v", key, trimmed(v), found, err)
				}
				time.Sleep(time.Duration(g) * 300 * time.Microsecond)
			}
		}()
	}
	flushed := make(chan struct{})
	go func() {
		wg.Wait()
		close(flushed)
	}()
	k := uint64(0)
	for done := false; !done; {
		select {
		case <-flushed:
			done = true
		case ticks <- time.Now():
			k++
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.LastEpochStats().Epoch < k {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d of the last tick never replied", k)
		}
		time.Sleep(time.Millisecond)
	}
	sys.Close()

	want := make([]uint64, k)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	for p, l := range logs {
		if fmt.Sprint(l.epochs) != fmt.Sprint(want) {
			t.Fatalf("%d ticks and %d Flush calls: partition %d received deliveries for epochs %v, want %v",
				k, flushers*rounds, p, l.epochs, want)
		}
	}
}

// TestPipelinedSoakWithStalledRemote hammers a ticker-driven (depth-2) system
// with concurrent Flush waits, LastEpochStats, Health, and client traffic while
// one of three partitions is a remote whose connection stalls mid-drain
// (faultnet StallAfter), then closes the system with requests still in
// flight. Run under -race (scripts/check.sh), this is the memory-safety
// and liveness soak for the worker-pool engine: every accepted request
// must resolve, and Close must return.
func TestPipelinedSoakWithStalledRemote(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The server's read direction stalls after 64 KiB: a few epochs in,
	// mid-frame, the partition stops consuming batches.
	l := faultnet.WrapListener(raw, func(i int) (faultnet.Plan, faultnet.Plan) {
		read := faultnet.NoFaults()
		read.StallAfter = 64 << 10
		return read, faultnet.NoFaults()
	})
	defer l.Kill()
	go transport.ServeSubORAM(l, sub, platform, m, nil)

	remote, err := transport.DialOptions(raw.Addr().String(), platform, m,
		transport.Options{DialTimeout: 2 * time.Second, RPCTimeout: 300 * time.Millisecond, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	subs := []SubORAMClient{
		suboram.New(suboram.Config{BlockSize: testBlock}),
		suboram.New(suboram.Config{BlockSize: testBlock}),
		remote,
	}
	sys, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: 2, Lambda: 32,
		Ticks: every(t, 2*time.Millisecond),
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 32
	ids := make([]uint64, nKeys)
	data := make([]byte, nKeys*testBlock)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() { // clients: requests may fail (stalled partition, Close) but must resolve
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64((g*11 + i) % nKeys)
				if i%2 == 0 {
					read(sys, key)
				} else {
					write(sys, key, []byte{byte(g), byte(i)})
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // Flush calls waiting on the ticker, racing Close
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sys.Flush()
			}
		}
	}()
	wg.Add(1)
	go func() { // observers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sys.LastEpochStats()
				sys.Health()
			}
		}
	}()

	time.Sleep(600 * time.Millisecond) // long enough to cross the stall offset
	closeDone := make(chan struct{})
	go func() {
		sys.Close() // close with requests in flight
		close(closeDone)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)

	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("soak goroutines wedged (request never resolved)")
	}
	select {
	case <-closeDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Close wedged mid-drain")
	}
}

// TestTickerOverlapsEpochs pins the engine's depth rule. Driven by a
// ticker the engine keeps two epochs in flight: while partition 0 holds
// epoch N in stage B, epoch N+1 reaches partition 1 before N replies, and
// no third epoch is dispatched. Driven by Flush alone it runs one epoch at a
// time: Flush returns only after its own epoch replied.
func TestTickerOverlapsEpochs(t *testing.T) {
	t.Run("ticker", func(t *testing.T) {
		p0, p1 := newStallSub(), newStallSub()
		startSystem(t, Config{Ticks: every(t, time.Millisecond)}, []SubORAMClient{p0, p1}, 8)
		defer close(p0.release) // before the Close that startSystem registered
		p0.stall.Store(true)
		<-p0.entered
		p0.stall.Store(false)
		// Every epoch reaches every partition in epoch order, one batch
		// each, so partition 1's n-th call is epoch N and its (n+1)-th N+1.
		n := p0.calls.Load()
		deadline := time.Now().Add(5 * time.Second)
		for p1.calls.Load() < n+1 {
			if time.Now().After(deadline) {
				t.Fatalf("partition 1 got %d deliveries while partition 0 held delivery %d: the next epoch never reached stage B",
					p1.calls.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // a third epoch would have had ~20 ticks
		if got := p1.calls.Load(); got != n+1 {
			t.Fatalf("partition 1 got delivery %d while partition 0 held %d: more than two epochs in flight", got, n)
		}
	})
	t.Run("flush", func(t *testing.T) {
		p0, p1 := newStallSub(), newStallSub()
		sys := startSystem(t, Config{}, []SubORAMClient{p0, p1}, 8)
		w, err := sys.Submit(Request{Op: store.OpRead, Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		p0.stall.Store(true)
		flushed := make(chan struct{})
		go func() {
			sys.Flush()
			close(flushed)
		}()
		<-p0.entered
		select {
		case <-flushed:
			t.Fatal("Flush returned while its epoch was held in stage B")
		case <-time.After(20 * time.Millisecond):
		}
		p0.stall.Store(false)
		close(p0.release)
		select {
		case <-flushed:
		case <-time.After(5 * time.Second):
			t.Fatal("Flush never returned after its epoch was released")
		}
		// Stats are published after every reply of the epoch is out.
		if got := sys.LastEpochStats().Epoch; got != 1 {
			t.Fatalf("Flush returned with epoch %d published, want its own epoch 1", got)
		}
		if v, found, err := w(); err != nil || !found || trimmed(v) != "init-1" {
			t.Fatalf("read: %q %v %v", trimmed(v), found, err)
		}
	})
}
