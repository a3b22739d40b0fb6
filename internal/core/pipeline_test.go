package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"snoopy/internal/history"
	"snoopy/internal/store"
)

func TestPipelinedBasicCorrectness(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, Ticks: every(t, 2*time.Millisecond),
	}, localSubs(3), 100)
	if _, _, err := write(sys, 7, []byte("pipelined")); err != nil {
		t.Fatal(err)
	}
	v, found, err := read(sys, 7)
	if err != nil || !found || trimmed(v) != "pipelined" {
		t.Fatalf("pipelined round trip: %q %v %v", trimmed(v), found, err)
	}
}

func TestPipelinedManualFlushDispatches(t *testing.T) {
	sys := startSystem(t, Config{Ticks: ticksFor(tickerDepth)}, localSubs(2), 20)
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	step(sys) // returns after dispatch; completion happens in the sequencer
	v, found, err := get()
	if err != nil || !found || trimmed(v) != "init-5" {
		t.Fatalf("pipelined manual flush: %q %v %v", trimmed(v), found, err)
	}
}

func TestPipelinedOverlappingEpochsKeepOrder(t *testing.T) {
	// Writes dispatched in consecutive epochs must apply in epoch order
	// even while stages overlap.
	sys := startSystem(t, Config{NumLoadBalancers: 1, Ticks: ticksFor(tickerDepth)}, localSubs(2), 30)
	var waits []func() ([]byte, bool, error)
	for e := 0; e < 6; e++ {
		w, err := sys.Submit(Request{Op: store.OpWrite, Key: 3, Value: []byte(fmt.Sprintf("e%d", e))})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
		step(sys) // one write per epoch, dispatched back-to-back
	}
	for _, w := range waits {
		if _, _, err := w(); err != nil {
			t.Fatal(err)
		}
	}
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	step(sys)
	v, _, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if trimmed(v) != "e5" {
		t.Fatalf("epoch order violated: final value %q", trimmed(v))
	}
}

func TestPipelinedLinearizable(t *testing.T) {
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
	for c := 0; c < 5; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 100)))
			for i := 0; i < 8; i++ {
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
					val := fmt.Sprintf("p%d-%d", c, i)
					if _, _, err := write(sys, key, []byte(val)); err != nil {
						t.Error(err)
						return
					}
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
		t.Fatal("pipelined history not linearizable")
	}
}

func TestPipelinedCloseDrains(t *testing.T) {
	sys, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, Lambda: 32, Ticks: ticksFor(tickerDepth),
	}, localSubs(2))
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1}
	if err := sys.Init(ids, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	get, err := sys.Submit(Request{Op: store.OpRead, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	step(sys)
	sys.Close() // must drain the dispatched epoch, then fail the rest
	if _, _, err := get(); err != nil {
		t.Fatalf("dispatched request should complete through Close: %v", err)
	}
	if _, _, err := read(sys, 1); err == nil {
		t.Fatal("post-close request accepted")
	}
}
