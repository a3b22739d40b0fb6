package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/transport"
)

// epochOf reads the epoch marker the failover test writes: every batch it
// sends a partition holds one write whose value is "e<epoch>".
func epochOf(reqs ...*store.Requests) uint64 {
	for _, r := range reqs {
		for j := 0; j < r.Len(); j++ {
			var e uint64
			if r.Op[j] == store.OpWrite && r.Key[j]&store.DummyKeyBit == 0 {
				if _, err := fmt.Sscanf(trimmed(r.Block(j)), "e%d", &e); err == nil {
					return e
				}
			}
		}
	}
	return 0
}

// countingPart is a partition server's store under its replay cache: it
// counts the batches it applies per epoch, and fails epoch failEpoch (when
// non-zero) before touching state, as a server that crashed and kept its
// cache would.
type countingPart struct {
	inner     *suboram.SubORAM
	failEpoch uint64

	mu      sync.Mutex
	applies map[uint64]int
}

func (p *countingPart) Init(ids []uint64, data []byte) error { return p.inner.Init(ids, data) }

func (p *countingPart) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	e := epochOf(reqs)
	if p.failEpoch != 0 && e == p.failEpoch {
		return nil, errInjected
	}
	out, err := p.inner.BatchAccess(reqs)
	if err == nil {
		p.mu.Lock()
		p.applies[e]++
		p.mu.Unlock()
	}
	return out, err
}

// delivery is one recorded BatchAccessN: the tag it travelled under and the
// epoch its batches carry.
type delivery struct {
	part             int
	stamped          bool
	lbID, seq, epoch uint64
}

type deliveryLog struct {
	mu  sync.Mutex
	all []delivery
}

// stampRecorder is a tagged partition client that records the tag of
// every delivery: the last tag the root adopted on it, or unstamped.
type stampRecorder struct {
	*transport.LocalTagged
	part int
	log  *deliveryLog

	stamped   bool
	lbID, seq uint64
}

func (r *stampRecorder) AdoptDeliveryTag(lbID, seq uint64) {
	r.stamped, r.lbID, r.seq = true, lbID, seq
	r.LocalTagged.AdoptDeliveryTag(lbID, seq)
}

func (r *stampRecorder) BatchAccessN(reqs []*store.Requests) ([]*store.Requests, error) {
	r.log.mu.Lock()
	r.log.all = append(r.log.all, delivery{r.part, r.stamped, r.lbID, r.seq + 1, epochOf(reqs...)})
	r.log.mu.Unlock()
	r.stamped = false
	return r.LocalTagged.BatchAccessN(reqs)
}

// TestJournalFailoverBetweenJournalAndDispatch: partition s fails epoch
// E−1, and its failover lands after epoch E is journaled but before E is
// dispatched, so E is journaled under the old client and sent on the new
// one. The root then crashes at E's "dispatch" point and a successor
// replays E over fresh handles. Every delivery of epoch E must travel as
// (stream, E) whichever handle carries it, so each partition applies every
// journaled epoch exactly once and every answer matches the reference
// model.
func TestJournalFailoverBetweenJournalAndDispatch(t *testing.T) {
	atDepths(t, testJournalFailoverBetweenJournalAndDispatch)
}

func testJournalFailoverBetweenJournalAndDispatch(t *testing.T, depth int) {
	const S, s, E, objects = 2, 1, 4, 32
	dir := t.TempDir()
	parts := make([]*countingPart, S)
	rcs := make([]*transport.ReplayCache, S)
	for p := range parts {
		parts[p] = &countingPart{inner: suboram.New(suboram.Config{BlockSize: testBlock}), applies: map[uint64]int{}}
		rcs[p] = transport.NewReplayCache()
	}
	parts[s].failEpoch = E - 1
	log := &deliveryLog{}
	client := func(p int) *stampRecorder {
		return &stampRecorder{LocalTagged: transport.NewLocalTagged(parts[p], rcs[p]), part: p, log: log}
	}
	clients := func() []SubORAMClient {
		cs := make([]SubORAMClient, S)
		for p := range cs {
			cs[p] = client(p)
		}
		return cs
	}

	release := make(chan struct{})
	var r1 *System
	r1, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: 1, Lambda: 32, PipelineDepth: depth,
		JournalDir: dir, FailoverAfter: 1,
		Failover: func(p int, _ SubORAMClient) (SubORAMClient, error) {
			<-release
			return client(p), nil
		},
		TestCrashPoint: func(point string, epoch uint64) bool {
			if epoch != E {
				return false
			}
			if point == "journal" {
				// E is journaled under the old client: swap in the new one
				// before E is dispatched.
				close(release)
				for deadline := time.Now().Add(10 * time.Second); r1.Health().Failovers[s] == 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			return point == "dispatch"
		},
	}, clients())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, objects)
	data := make([]byte, objects*testBlock)
	model := map[uint64]string{}
	keysOn := make([][]uint64, S)
	for k := range ids {
		ids[k] = uint64(k)
		model[uint64(k)] = fmt.Sprintf("init-%d", k)
		copy(data[k*testBlock:], model[uint64(k)])
		keysOn[r1.SubORAMFor(uint64(k))] = append(keysOn[r1.SubORAMFor(uint64(k))], uint64(k))
	}
	if err := r1.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	// Epoch e writes "e<e>" to one key per partition and reads the key the
	// previous epoch wrote there. want holds each request's answer under
	// the reference model: the value at the start of its epoch, or an
	// error for partition s in epoch E−1.
	type req struct {
		id, key uint64
		write   bool
		want    string
		wait    func() ([]byte, bool, error)
	}
	var reqs []*req
	submit := func(sys *System, e uint64) []*req {
		var out []*req
		for p := 0; p < S; p++ {
			w := &req{id: e*100 + uint64(p)*10, key: keysOn[p][e%2], write: true, want: model[keysOn[p][e%2]]}
			r := &req{id: w.id + 1, key: keysOn[p][(e+1)%2], want: model[keysOn[p][(e+1)%2]]}
			for _, q := range []*req{w, r} {
				op := Request{Op: store.OpRead, Key: q.key, ID: q.id}
				if q.write {
					op.Op, op.Value = store.OpWrite, []byte(fmt.Sprintf("e%d", e))
				}
				if q.wait, err = sys.Submit(op); err != nil {
					t.Fatal(err)
				}
			}
			if p == s && e == E-1 {
				w.want, r.want = "", ""
			} else {
				model[w.key] = fmt.Sprintf("e%d", e)
			}
			out = append(out, w, r)
		}
		return out
	}
	for e := uint64(1); e <= E; e++ {
		reqs = append(reqs, submit(r1, e)...)
		r1.Flush()
	}
	for _, q := range reqs {
		v, _, err := q.wait()
		switch {
		case q.id/100 == E:
			if !errors.Is(err, ErrRootDown) {
				t.Fatalf("request %d in the crashed epoch: %v, want ErrRootDown", q.id, err)
			}
		case q.want == "":
			if !errors.Is(err, errInjected) {
				t.Fatalf("request %d on the failed partition: %q, %v", q.id, trimmed(v), err)
			}
		case err != nil || trimmed(v) != q.want:
			t.Fatalf("request %d: %q, %v; want %q", q.id, trimmed(v), err, q.want)
		}
	}
	if !r1.Crashed() || r1.Health().Failovers[s] != 1 {
		t.Fatalf("crashed=%v failovers=%v: the interleaving did not happen", r1.Crashed(), r1.Health().Failovers)
	}
	r1.Close()

	r2, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: 1, Lambda: 32, PipelineDepth: depth, JournalDir: dir,
	}, clients())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, q := range reqs[len(reqs)-2*S:] {
		got, ok := r2.replyWin.get(q.id)
		if !ok || trimmed(got.value) != q.want {
			t.Fatalf("replayed request %d parked %q (parked=%v), want %q", q.id, trimmed(got.value), ok, q.want)
		}
	}
	final := submit(r2, E+1)
	r2.Flush()
	for _, q := range final {
		if v, _, err := q.wait(); err != nil || trimmed(v) != q.want {
			t.Fatalf("successor request %d: %q, %v; want %q", q.id, trimmed(v), err, q.want)
		}
	}

	for p, part := range parts {
		for e := uint64(1); e <= E+1; e++ {
			want := 1
			if p == s && e == E-1 {
				want = 0
			}
			if got := part.applies[e]; got != want {
				t.Fatalf("partition %d applied epoch %d %d times, want %d", p, e, got, want)
			}
		}
	}
	if r1.stream == 0 || r2.stream != r1.stream {
		t.Fatalf("incarnations derived streams %#x and %#x", r1.stream, r2.stream)
	}
	replayed := 0
	for _, d := range log.all {
		if !d.stamped || d.lbID != r1.stream || d.seq != d.epoch {
			t.Fatalf("partition %d: epoch %d travelled as (%#x, %d) stamped=%v, want (%#x, %d)",
				d.part, d.epoch, d.lbID, d.seq, d.stamped, r1.stream, d.epoch)
		}
		if d.epoch == E {
			replayed++
		}
	}
	if replayed != 2*S {
		t.Fatalf("epoch %d was delivered %d times, want %d (dispatch and replay per partition)", E, replayed, 2*S)
	}
}
