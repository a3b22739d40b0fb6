package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/wirecode"
)

// recorder keeps every batch dispatched to one partition, in wire form.
type recorder struct {
	inner SubORAMClient
	mu    sync.Mutex
	sent  [][]byte
}

func (r *recorder) record(reqs *store.Requests) {
	r.mu.Lock()
	r.sent = append(r.sent, wirecode.AppendRequests(nil, reqs))
	r.mu.Unlock()
}

func (r *recorder) Init(ids []uint64, data []byte) error { return r.inner.Init(ids, data) }

func (r *recorder) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	for _, b := range reqs {
		r.record(b)
	}
	return r.inner.Deliver(tag, reqs)
}

// batches decodes what was sent.
func (r *recorder) batches(t *testing.T) []*store.Requests {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*store.Requests, len(r.sent))
	for i, f := range r.sent {
		b, err := wirecode.DecodeRequests(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func recorded(clients []SubORAMClient) ([]SubORAMClient, []*recorder) {
	recs := make([]*recorder, len(clients))
	wrapped := make([]SubORAMClient, len(clients))
	for i, c := range clients {
		recs[i] = &recorder{inner: c}
		wrapped[i] = recs[i]
	}
	return wrapped, recs
}

// submitEpoch queues n requests — the same ones for the same seed — and
// runs the epoch, returning the waits.
func submitEpoch(t *testing.T, sys *System, seed, n int) []func() ([]byte, bool, error) {
	t.Helper()
	var waits []func() ([]byte, bool, error)
	for i := 0; i < n; i++ {
		key := uint64((seed*7 + i*3) % 16)
		req := Request{Op: store.OpRead, Key: key, ID: uint64(seed*1000 + i + 1)}
		if i%3 == 0 {
			req = Request{Op: store.OpWrite, Key: key, Value: []byte(fmt.Sprintf("e%d-%d", seed, i)), ID: req.ID}
		}
		w, err := sys.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	sys.Flush()
	return waits
}

// keysInUse fails if one table key ordered two different batches, and
// returns how many distinct keys it saw.
func keysInUse(t *testing.T, what string, recs ...[]*recorder) int {
	t.Helper()
	first := map[[2]uint64][]byte{}
	for _, rs := range recs {
		for _, r := range rs {
			for _, b := range r.batches(t) {
				k, frame := b.KeyStamp(0), wirecode.AppendRequests(nil, b)
				if k == ([2]uint64{}) {
					t.Fatalf("%s: a batch went out without a table key", what)
				}
				if prev, ok := first[k]; ok && !bytes.Equal(prev, frame) {
					t.Fatalf("%s: key %x ordered two different batches", what, k)
				}
				first[k] = frame
			}
		}
	}
	return len(first)
}

// TestJournalReplayRebuildsBatches: a journaled root that crashes after
// dispatching epoch E is succeeded over the same journal directory; the
// successor's replay of E dispatches E's batches byte for byte as the first
// incarnation did — same order, same table keys — so a partition answering
// E from its delivery window answers in the order the successor expects, and
// the replayed epoch's clients get their answers. No key orders two
// different batches across both incarnations.
func TestJournalReplayRebuildsBatches(t *testing.T) {
	const S, L = 2, 2
	c := newJournalCluster(t, S)
	clients, first := recorded(c.tagged())
	r1, err := NewWithSubORAMs(Config{BlockSize: testBlock, NumLoadBalancers: L, Lambda: 32, JournalDir: c.dir}, clients)
	if err != nil {
		t.Fatal(err)
	}
	r1.setCrashHook(crashOnceAt("dispatch", 2))
	c.initObjects(t, r1, 16)
	for _, w := range submitEpoch(t, r1, 1, 12) {
		if _, _, err := w(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range submitEpoch(t, r1, 2, 12) {
		if _, _, err := w(); !errors.Is(err, ErrRootDown) {
			t.Fatalf("epoch 2 on the crashed root: %v, want ErrRootDown", err)
		}
	}
	r1.Close()

	clients, second := recorded(c.tagged())
	r2, err := NewWithSubORAMs(Config{BlockSize: testBlock, NumLoadBalancers: L, Lambda: 32, JournalDir: c.dir}, clients)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for s := 0; s < S; s++ {
		was, is := first[s].batches(t), second[s].batches(t)
		if len(was) != 2*L || len(is) != L {
			t.Fatalf("partition %d: %d batches before the crash, %d replayed; want %d and %d", s, len(was), len(is), 2*L, L)
		}
		for l := 0; l < L; l++ {
			a, b := wirecode.AppendRequests(nil, was[L+l]), wirecode.AppendRequests(nil, is[l])
			if !bytes.Equal(a, b) {
				t.Fatalf("partition %d, load balancer %d: the replay of epoch 2 dispatched other bytes", s, l)
			}
		}
	}
	// The replayed epoch's answers are parked under their IDs: a retry of
	// epoch 2's second request gets the original result.
	wait, err := r2.Submit(Request{Op: store.OpRead, Key: uint64((2*7 + 1*3) % 16), ID: 2*1000 + 2})
	if err != nil {
		t.Fatal(err)
	}
	r2.Flush()
	if _, _, err := wait(); err != nil {
		t.Fatalf("retry of a replayed request: %v", err)
	}
	if n := keysInUse(t, "both incarnations", first, second); n != 2*L*S+L*S {
		t.Fatalf("%d distinct table keys over %d dispatched batches", n, 2*L*S+L*S)
	}
}

// TestTableKeysNeverRepeat: without a journal every System draws a fresh
// secret, so two Systems opened one after the other over the same routing
// key order epoch 1 under different keys; within one System the two load
// balancers of an L = 2 deployment, every partition and every epoch get
// keys of their own.
func TestTableKeysNeverRepeat(t *testing.T) {
	const S, L = 2, 2
	route := crypt.MustNewKey()
	var runs [][]*recorder
	for run := 0; run < 2; run++ {
		subs := make([]SubORAMClient, S)
		for s := range subs {
			subs[s] = suboram.New(suboram.Config{BlockSize: testBlock})
		}
		clients, recs := recorded(subs)
		sys, err := NewWithSubORAMs(Config{BlockSize: testBlock, NumLoadBalancers: L, Lambda: 32, RouteKey: &route}, clients)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, 16)
		for i := range ids {
			ids[i] = uint64(i)
		}
		if err := sys.Init(ids, make([]byte, 16*testBlock)); err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= 3; e++ {
			for _, w := range submitEpoch(t, sys, e, 12) {
				if _, _, err := w(); err != nil {
					t.Fatal(err)
				}
			}
		}
		sys.Close()
		runs = append(runs, recs)
	}
	// Epoch 1, partition 0, load balancer 0: the first batch each System sent.
	a, b := runs[0][0].batches(t)[0], runs[1][0].batches(t)[0]
	if a.KeyStamp(0) == b.KeyStamp(0) {
		t.Fatal("two Systems over one routing key ordered epoch 1 under the same key")
	}
	lb0, lb1 := runs[0][0].batches(t)[0], runs[0][0].batches(t)[1]
	if lb0.KeyStamp(0) == lb1.KeyStamp(0) {
		t.Fatal("the two load balancers ordered partition 0's epoch-1 batches under the same key")
	}
	if n := keysInUse(t, "two Systems", runs...); n != 2*3*L*S {
		t.Fatalf("%d distinct table keys over %d dispatched batches", n, 2*3*L*S)
	}
}

// echoing answers every batch under another table key than the one it was
// sent with — a partition that orders its answers some other way.
type echoing struct{ SubORAMClient }

func (e echoing) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs, err := e.SubORAMClient.Deliver(tag, reqs)
	for _, out := range outs {
		out.StampKey(crypt.MustNewSipKey())
	}
	return outs, err
}

// TestEngineRefusesForeignKeyEcho: responses that echo a key the load
// balancer did not send fail their epoch closed — every request of it gets
// loadbalancer.ErrKeyEcho, none a value matched under the wrong order.
func TestEngineRefusesForeignKeyEcho(t *testing.T) {
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	sys, err := NewWithSubORAMs(Config{BlockSize: testBlock, Lambda: 32}, []SubORAMClient{echoing{sub}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Init([]uint64{1, 2, 3}, make([]byte, 3*testBlock)); err != nil {
		t.Fatal(err)
	}
	for _, w := range submitEpoch(t, sys, 1, 6) {
		if _, _, err := w(); !errors.Is(err, loadbalancer.ErrKeyEcho) {
			t.Fatalf("a request answered under a foreign key: %v, want ErrKeyEcho", err)
		}
	}
}
