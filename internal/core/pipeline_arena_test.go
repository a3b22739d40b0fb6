package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPipelinedEpochsArenaIsolation drives many overlapping epochs with
// concurrent writers and verifies every reader observes either the initial
// value or something a writer actually wrote for that exact key. Pooled
// buffers flowing between stage A, B, and C of different in-flight epochs
// would surface here as cross-epoch (or cross-key) value bleed — and, under
// -race, as a data race on the recycled backing arrays.
func TestPipelinedEpochsArenaIsolation(t *testing.T) {
	const block = testBlock
	sys, err := NewWithSubORAMs(Config{
		BlockSize:        block,
		NumLoadBalancers: 2,
		Lambda:           32,
		Ticks:            every(t, time.Millisecond),
	}, localSubs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const nKeys = 64
	ids := make([]uint64, nKeys)
	data := make([]byte, nKeys*block)
	for i := range ids {
		ids[i] = uint64(i)
		copy(data[i*block:], fmt.Sprintf("init-%03d", i))
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() { // writers: every value names its key
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := uint64((g*16 + i) % nKeys)
				val := fmt.Sprintf("w-%03d-g%d-i%02d", key, g, i)
				if _, _, err := write(sys, key, []byte(val)); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { // readers: a value must always name the key it came from
			defer wg.Done()
			for i := 0; i < 60; i++ {
				key := uint64(i % nKeys)
				v, found, err := read(sys, key)
				if err != nil {
					errCh <- err
					return
				}
				if !found {
					errCh <- fmt.Errorf("key %d vanished", key)
					return
				}
				wantInit := []byte(fmt.Sprintf("init-%03d", key))
				wantWrite := []byte(fmt.Sprintf("w-%03d-", key))
				if !bytes.HasPrefix(v, wantInit) && !bytes.HasPrefix(v, wantWrite) {
					errCh <- fmt.Errorf("key %d returned foreign value %q (buffer bleed)", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
