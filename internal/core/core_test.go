package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/history"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 32

// localSubs builds n in-process partitions of testBlock-byte objects.
func localSubs(n int) []SubORAMClient {
	subs := make([]SubORAMClient, n)
	for i := range subs {
		subs[i] = suboram.New(suboram.Config{BlockSize: testBlock})
	}
	return subs
}

// every is a real epoch ticker of period d, stopped when the test ends.
func every(t *testing.T, d time.Duration) <-chan time.Time {
	tk := time.NewTicker(d)
	t.Cleanup(tk.Stop)
	return tk.C
}

func startSystem(t *testing.T, cfg Config, subs []SubORAMClient, nObjects int) *System {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = testBlock
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 32
	}
	sys, err := NewWithSubORAMs(cfg, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ids := make([]uint64, nObjects)
	data := make([]byte, nObjects*cfg.BlockSize)
	for i := 0; i < nObjects; i++ {
		ids[i] = uint64(i)
		copy(data[i*cfg.BlockSize:], []byte(fmt.Sprintf("init-%d", i)))
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	return sys
}

func trimmed(b []byte) string { return strings.TrimRight(string(b), "\x00") }

// do submits r and blocks for its answer; read and write are its plain
// forms.
func do(sys *System, r Request) ([]byte, bool, error) {
	wait, err := sys.Submit(r)
	if err != nil {
		return nil, false, err
	}
	return wait()
}

func read(sys *System, key uint64) ([]byte, bool, error) {
	return do(sys, Request{Op: store.OpRead, Key: key})
}

func write(sys *System, key uint64, value []byte) ([]byte, bool, error) {
	return do(sys, Request{Op: store.OpWrite, Key: key, Value: value})
}

func TestReadWriteSingleEpochTicker(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, Ticks: every(t, 2*time.Millisecond),
	}, localSubs(3), 100)
	v, found, err := read(sys, 7)
	if err != nil || !found {
		t.Fatalf("read failed: %v found=%v", err, found)
	}
	if trimmed(v) != "init-7" {
		t.Fatalf("read got %q", trimmed(v))
	}
	prev, found, err := write(sys, 7, []byte("updated"))
	if err != nil || !found {
		t.Fatalf("write failed: %v found=%v", err, found)
	}
	if trimmed(prev) != "init-7" {
		t.Fatalf("write returned %q, want pre-write value", trimmed(prev))
	}
	v, _, _ = read(sys, 7)
	if trimmed(v) != "updated" {
		t.Fatalf("read after write got %q", trimmed(v))
	}
}

func TestAbsentKey(t *testing.T) {
	sys := startSystem(t, Config{Ticks: every(t, time.Millisecond)}, localSubs(2), 10)
	_, found, err := read(sys, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("absent key reported found")
	}
	if _, found, _ := write(sys, 9999, []byte("x")); found {
		t.Fatal("write to absent key reported found")
	}
	if _, found, _ := read(sys, 9999); found {
		t.Fatal("write materialized an absent key")
	}
}

func TestRejectsReservedKeysAndOversizedValues(t *testing.T) {
	sys := startSystem(t, Config{Ticks: every(t, time.Millisecond)}, localSubs(1), 4)
	if _, _, err := read(sys, store.DummyKeyBit|1); err == nil {
		t.Fatal("reserved key accepted")
	}
	if _, _, err := write(sys, 1, make([]byte, testBlock+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestManualFlush(t *testing.T) {
	sys := startSystem(t, Config{}, localSubs(2), 20) // no ticker
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, found, err := get()
		if err != nil || !found || trimmed(v) != "init-5" {
			t.Errorf("async read wrong: %q %v %v", trimmed(v), found, err)
		}
	}()
	sys.Flush()
	<-done
	st := sys.LastEpochStats()
	if st.Requests != 1 || st.BatchSize < 1 {
		t.Fatalf("epoch stats wrong: %+v", st)
	}
}

func TestSameEpochSemantics(t *testing.T) {
	// A read and a write to the same key in the same epoch: the read sees
	// the pre-epoch value (reads linearize before writes within a batch,
	// paper §C), and the write's previous-value response matches it.
	sys := startSystem(t, Config{NumLoadBalancers: 1}, localSubs(2), 50)
	rd, err := sys.Submit(Request{Op: store.OpRead, Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sys.Submit(Request{Op: store.OpWrite, Key: 3, Value: []byte("new")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v, _, _ := rd()
		if trimmed(v) != "init-3" {
			t.Errorf("same-epoch read got %q, want pre-epoch value", trimmed(v))
		}
	}()
	go func() {
		defer wg.Done()
		v, _, _ := wr()
		if trimmed(v) != "init-3" {
			t.Errorf("same-epoch write response %q", trimmed(v))
		}
	}()
	sys.Flush()
	wg.Wait()
}

func TestLastWriteWinsWithinEpoch(t *testing.T) {
	sys := startSystem(t, Config{NumLoadBalancers: 1}, localSubs(2), 50)
	var fns []func() ([]byte, bool, error)
	for i := 0; i < 5; i++ {
		fn, err := sys.Submit(Request{Op: store.OpWrite, Key: 9, Value: []byte(fmt.Sprintf("w%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	sys.Flush() // all five writes land in this single epoch
	for _, fn := range fns {
		fn()
	}
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 9})
	if err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	v, _, _ := get()
	if trimmed(v) != "w4" {
		t.Fatalf("last write should win, got %q", trimmed(v))
	}
}

func TestConcurrentClientsLinearizable(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, Ticks: every(t, time.Millisecond),
	}, localSubs(3), 8)
	initial := map[uint64]string{}
	for i := uint64(0); i < 8; i++ {
		initial[i] = fmt.Sprintf("init-%d", i)
	}

	var mu sync.Mutex
	var ops []history.Op
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 10; i++ {
				key := uint64(rng.Intn(8))
				start := time.Now().UnixNano()
				var op history.Op
				if rng.Intn(2) == 0 {
					v, _, err := read(sys, key)
					if err != nil {
						t.Error(err)
						return
					}
					op = history.Op{Key: key, Output: trimmed(v)}
				} else {
					val := fmt.Sprintf("c%d-%d", c, i)
					prev, _, err := write(sys, key, []byte(val))
					if err != nil {
						t.Error(err)
						return
					}
					// Write responses carry the epoch-start value, not the
					// immediate predecessor; only reads are observations.
					_ = prev
					op = history.Op{Key: key, Write: true, Input: val, IgnoreOutput: true}
				}
				op.Start = start
				op.End = time.Now().UnixNano()
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if !history.CheckLinearizable(initial, ops) {
		t.Fatal("history not linearizable")
	}
}

func TestValuesSurviveManyEpochs(t *testing.T) {
	sys := startSystem(t, Config{NumLoadBalancers: 2, Ticks: every(t, time.Millisecond)}, localSubs(4), 200)
	rng := rand.New(rand.NewSource(60))
	shadow := map[uint64]string{}
	for round := 0; round < 30; round++ {
		key := uint64(rng.Intn(200))
		if rng.Intn(2) == 0 {
			val := fmt.Sprintf("r%d", round)
			if _, _, err := write(sys, key, []byte(val)); err != nil {
				t.Fatal(err)
			}
			shadow[key] = val
		} else {
			v, found, err := read(sys, key)
			if err != nil || !found {
				t.Fatalf("read %d: %v %v", key, err, found)
			}
			want, ok := shadow[key]
			if !ok {
				want = fmt.Sprintf("init-%d", key)
			}
			if trimmed(v) != want {
				t.Fatalf("key %d: got %q want %q", key, trimmed(v), want)
			}
		}
	}
}

func TestCloseFailsPending(t *testing.T) {
	sys := startSystem(t, Config{}, localSubs(1), 4) // manual epochs only
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if _, _, err := get(); err == nil {
		t.Fatal("pending request should fail on Close")
	}
	if _, _, err := read(sys, 1); err == nil {
		t.Fatal("post-close request accepted")
	}
}

func TestEpochStatsShape(t *testing.T) {
	sys := startSystem(t, Config{NumLoadBalancers: 2}, localSubs(3), 64)
	var fns []func() ([]byte, bool, error)
	for i := 0; i < 40; i++ {
		fn, err := sys.Submit(Request{Op: store.OpRead, Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	sys.Flush()
	for _, fn := range fns {
		if _, _, err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.LastEpochStats()
	if st.Requests != 40 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.LBWall) != 2 || len(st.SubORAMWall) != 3 {
		t.Fatalf("per-node walls missing: %+v", st)
	}
	if st.Wall <= 0 || st.MakeBatch <= 0 || st.SubORAM <= 0 {
		t.Fatalf("durations not recorded: %+v", st)
	}
}

func TestSealedSystem(t *testing.T) {
	sealed := func() SubORAMClient { return suboram.New(suboram.Config{BlockSize: testBlock, Sealed: true}) }
	sys := startSystem(t, Config{Ticks: every(t, time.Millisecond)}, []SubORAMClient{sealed(), sealed()}, 30)
	if _, _, err := write(sys, 5, []byte("sealed!")); err != nil {
		t.Fatal(err)
	}
	v, found, err := read(sys, 5)
	if err != nil || !found || trimmed(v) != "sealed!" {
		t.Fatalf("sealed round trip: %q %v %v", trimmed(v), found, err)
	}
}

func TestManyValuesIntegrity(t *testing.T) {
	// Sized to stay fast under -race on small hosts.
	sys := startSystem(t, Config{NumLoadBalancers: 2, Ticks: every(t, time.Millisecond)}, localSubs(3), 200)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * 40; i < c*40+40; i++ {
				if _, _, err := write(sys, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 160; i++ {
		v, found, err := read(sys, uint64(i))
		if err != nil || !found {
			t.Fatal(err, found)
		}
		if !bytes.HasPrefix(v, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("key %d corrupted: %q", i, trimmed(v))
		}
	}
}

func TestDoubleCloseAndConcurrentFlush(t *testing.T) {
	sys := startSystem(t, Config{Ticks: every(t, time.Millisecond)}, localSubs(2), 10)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.Flush()
		}()
	}
	wg.Wait()
	sys.Close()
	sys.Close() // must be idempotent
}

func TestFlushWithNoSubscribers(t *testing.T) {
	// Idle epochs (no pending requests) must still run cleanly — each
	// subORAM gets one dummy per LB (obliviousness of request presence).
	sys := startSystem(t, Config{NumLoadBalancers: 2}, localSubs(3), 10)
	for i := 0; i < 5; i++ {
		sys.Flush()
	}
	st := sys.LastEpochStats()
	if st.Requests != 0 || st.BatchSize != 1 {
		t.Fatalf("idle epoch stats: %+v", st)
	}
}
