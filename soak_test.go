package snoopy_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"snoopy"
	"snoopy/internal/metrics"
	"snoopy/internal/workload"
)

// TestBurstySoak replays a bursty arrival schedule (paper §4.1: "R is not
// fixed across epochs (requests can be bursty)") against a live pipelined
// deployment, checking that every request completes correctly, batch
// sizing absorbs the bursts without drops, and latency stays bounded.
func TestBurstySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	const objects = 4096
	st, err := snoopy.Open(snoopy.Config{
		BlockSize: 32, LoadBalancers: 2, SubORAMs: 3, Lambda: 64,
		Epoch: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := make([]uint64, objects)
	data := make([]byte, objects*32)
	for i := range ids {
		ids[i] = uint64(i)
		copy(data[i*32:], fmt.Sprintf("s%d", i))
	}
	if err := st.LoadSlices(ids, data); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	arrivals := workload.Arrivals(rng, []workload.Burst{
		{Rate: 400, Seconds: 0.5},  // steady
		{Rate: 2500, Seconds: 0.3}, // burst
		{Rate: 0, Seconds: 0.2},    // silence
		{Rate: 800, Seconds: 0.5},  // recovery
	})
	gen := workload.Mix(workload.Zipf(objects, 1.2), 0.3)

	var lat metrics.Latencies
	var wg sync.WaitGroup
	errs := make(chan error, len(arrivals))
	start := time.Now()
	var genMu sync.Mutex
	for _, at := range arrivals {
		at := at
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := time.Duration(at*1e9) - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			genMu.Lock()
			op := gen(rng)
			genMu.Unlock()
			t0 := time.Now()
			if op.Write {
				if _, _, err := st.Write(op.Key, []byte("w")); err != nil {
					errs <- err
					return
				}
			} else {
				v, found, err := st.Read(op.Key)
				if err != nil {
					errs <- err
					return
				}
				if !found || !(bytes.HasPrefix(v, []byte("s")) || v[0] == 'w') {
					errs <- fmt.Errorf("key %d: found=%v bad value %q", op.Key, found, v)
					return
				}
			}
			lat.Add(time.Since(t0))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lat.Count() < len(arrivals)*9/10 {
		t.Fatalf("only %d/%d requests completed", lat.Count(), len(arrivals))
	}
	if st.Stats().Dropped != 0 {
		t.Fatalf("burst caused %d drops — Theorem 3 sizing failed", st.Stats().Dropped)
	}
	// Latency bounded: generous cap (single-core host runs everything).
	if p99 := lat.Percentile(99); p99 > 5*time.Second {
		t.Fatalf("p99 latency %v under burst", p99)
	}
	t.Logf("soak: %d requests, %s", lat.Count(), lat.String())
}

// TestCrashRecoverySoak runs write rounds against a durable (DataDir)
// deployment, hard-stops it mid-stream — the store is abandoned without
// Close, so only the per-batch durability path has run — and reopens the
// directory, verifying every acknowledged write is readable at its last
// acknowledged version and no unacknowledged write surfaces.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	const (
		objects = 512
		block   = 32
		rounds  = 6
	)
	dataDir := t.TempDir()
	value := func(id uint64, round int) []byte {
		v := make([]byte, block)
		copy(v, fmt.Sprintf("r%d-%d", round, id))
		return v
	}
	// Manual epochs: a write is acknowledged exactly when its Flush-driven
	// epoch completes, so the test knows the precise acked set at "crash".
	st, err := snoopy.Open(snoopy.Config{
		BlockSize: block, LoadBalancers: 2, SubORAMs: 3, Lambda: 64,
		DataDir: dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered() {
		t.Fatal("fresh DataDir reported recovered")
	}
	ids := make([]uint64, objects)
	data := make([]byte, objects*block)
	for i := range ids {
		ids[i] = uint64(i)
		copy(data[i*block:], value(uint64(i), 0))
	}
	if err := st.LoadSlices(ids, data); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	acked := make(map[uint64]int) // id → last acknowledged round
	for r := 1; r <= rounds; r++ {
		waits := map[uint64]func() ([]byte, bool, error){}
		for i := 0; i < 64; i++ {
			id := uint64(rng.Intn(objects))
			w, err := st.WriteAsync(id, value(id, r))
			if err != nil {
				t.Fatal(err)
			}
			waits[id] = w
		}
		st.Flush()
		for id, w := range waits {
			if _, ok, err := w(); err != nil || !ok {
				t.Fatalf("round %d write to %d: ok=%v err=%v", r, id, ok, err)
			}
			acked[id] = r
		}
	}
	// Mid-stream hard stop: submit one more round but never flush it. These
	// writes were never acknowledged and must not survive the crash.
	for i := 0; i < 64; i++ {
		id := uint64(rng.Intn(objects))
		if _, err := st.WriteAsync(id, value(id, 99)); err != nil {
			t.Fatal(err)
		}
	}
	// No st.Close(): the process "dies" with the store mid-stream.

	re, err := snoopy.Open(snoopy.Config{
		BlockSize: block, LoadBalancers: 2, SubORAMs: 3, Lambda: 64,
		Epoch: 5 * time.Millisecond, DataDir: dataDir,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !re.Recovered() {
		t.Fatal("reopen of populated DataDir did not recover")
	}
	ops := make([]snoopy.Op, objects)
	for id := range ops {
		ops[id] = snoopy.Op{Key: uint64(id)}
	}
	for id, res := range re.Do(ops) {
		if res.Err != nil || !res.Found {
			t.Fatalf("Read(%d) after crash: found=%v err=%v", id, res.Found, res.Err)
		}
		want := value(uint64(id), acked[uint64(id)]) // round 0 = load-time value
		if !bytes.Equal(res.Value, want) {
			t.Fatalf("Read(%d) after crash = %q, want %q", id, res.Value, want)
		}
	}
	// The recovered store must keep acknowledging durable writes.
	if _, ok, err := re.Write(3, value(3, 7)); err != nil || !ok {
		t.Fatalf("post-recovery write: ok=%v err=%v", ok, err)
	}
	got, ok, err := re.Read(3)
	if err != nil || !ok || !bytes.Equal(got, value(3, 7)) {
		t.Fatalf("post-recovery read = %q ok=%v err=%v", got, ok, err)
	}
}
