package oblix

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/store"
)

func TestDORAMRoundTrip(t *testing.T) {
	d, err := New(500, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels() < 2 {
		t.Fatalf("500 blocks at fanout 4 should recurse ≥2 levels, got %d", d.Levels())
	}
	if _, err := d.Access(true, 123, []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, err := d.Access(false, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v, []byte("value")) {
		t.Fatalf("round trip lost data: %q", v)
	}
}

func TestDORAMRandomizedAgainstShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	const n = 300
	d, _ := New(n, 16)
	shadow := make([][]byte, n)
	for i := range shadow {
		shadow[i] = make([]byte, 16)
	}
	for step := 0; step < 3000; step++ {
		id := uint32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			val := []byte(fmt.Sprintf("s%d", step))
			if _, err := d.Access(true, id, val); err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 16)
			copy(b, val)
			shadow[id] = b
		} else {
			v, err := d.Access(false, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v, shadow[id]) {
				t.Fatalf("step %d id %d: got %q want %q", step, id, v, shadow[id])
			}
		}
	}
}

func TestDORAMWriteReturnsPrevious(t *testing.T) {
	d, _ := New(100, 8)
	d.Access(true, 5, []byte("aa"))
	prev, _ := d.Access(true, 5, []byte("bb"))
	if !bytes.HasPrefix(prev, []byte("aa")) {
		t.Fatalf("previous value wrong: %q", prev)
	}
}

func TestDORAMSmallNoRecursion(t *testing.T) {
	d, err := New(32, 8) // below topLevelMax: no recursion levels
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 0 {
		t.Fatalf("expected no recursion for 32 blocks, got %d levels", d.Levels())
	}
	d.Access(true, 3, []byte("x"))
	v, _ := d.Access(false, 3, nil)
	if v[0] != 'x' {
		t.Fatal("small DORAM broken")
	}
}

func TestDORAMTraffic(t *testing.T) {
	d, _ := New(1000, 16)
	before := d.ServerBytesMoved()
	d.Access(false, 1, nil)
	delta := d.ServerBytesMoved() - before
	if delta == 0 {
		t.Fatal("no traffic recorded")
	}
	// Recursion must cost more than a bare data access.
	dataOnly := uint64(2 * (d.data.Height() + 1) * 4 * 16)
	if delta <= dataOnly {
		t.Fatalf("recursion traffic missing: %d <= %d", delta, dataOnly)
	}
}

func TestSubORAMAdapter(t *testing.T) {
	s := NewSubORAM(16)
	ids := []uint64{100, 200, 300}
	data := make([]byte, 3*16)
	copy(data[16:32], []byte("two"))
	if err := s.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	reqs := store.NewRequests(4, 16)
	reqs.SetRow(0, store.OpRead, 200, 0, 0, 0, nil)
	reqs.SetRow(1, store.OpWrite, 300, 0, 1, 1, []byte("w300"))
	reqs.SetRow(2, store.OpRead, 999, 0, 2, 2, nil)                 // absent
	reqs.SetRow(3, store.OpRead, store.DummyKeyBit|1, 0, 3, 3, nil) // dummy
	out, err := s.BatchAccess(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out.Block(0), []byte("two")) || out.Aux[0] != 1 {
		t.Fatalf("read wrong: %q", out.Block(0))
	}
	if out.Aux[2] != 0 || out.Aux[3] != 0 {
		t.Fatal("absent/dummy marked found")
	}
	// Write persisted.
	reqs2 := store.NewRequests(1, 16)
	reqs2.SetRow(0, store.OpRead, 300, 0, 0, 0, nil)
	out2, _ := s.BatchAccess(reqs2)
	if !bytes.HasPrefix(out2.Block(0), []byte("w300")) {
		t.Fatalf("write lost: %q", out2.Block(0))
	}
}

// TestOblixShardsInFullSystem mounts DORAM shards as Snoopy partitions. The
// shards answer in the order received and declare it (key order), which is
// what lets the load balancer's merge match their responses.
func TestOblixShardsInFullSystem(t *testing.T) {
	const block = 32
	var subs []core.SubORAMClient
	for i := 0; i < 3; i++ {
		subs = append(subs, NewSubORAM(block))
	}
	tk := time.NewTicker(2 * time.Millisecond)
	defer tk.Stop()
	sys, err := core.NewWithSubORAMs(core.Config{
		BlockSize: block, NumLoadBalancers: 2, Lambda: 32, Ticks: tk.C,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	n := 90
	ids := make([]uint64, n)
	data := make([]byte, n*block)
	for i := 0; i < n; i++ {
		ids[i] = uint64(i)
		copy(data[i*block:], fmt.Sprintf("v%d", i))
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := do(sys, core.Request{Op: store.OpWrite, Key: 41, Value: []byte("w41")}); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[uint64]string{0: "v0", 41: "w41", 89: "v89"} {
		v, found, err := do(sys, core.Request{Op: store.OpRead, Key: key})
		if err != nil || !found || !bytes.HasPrefix(v, []byte(want)) {
			t.Fatalf("key %d: %q %v %v, want %q", key, v, found, err, want)
		}
	}
	if _, found, _ := do(sys, core.Request{Op: store.OpRead, Key: 5000}); found {
		t.Fatal("absent key found through DORAM shards")
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
