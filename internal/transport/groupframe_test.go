package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
)

// TestBatchAccessNRoundTrip drives the grouped frame path end to end: one
// delivery carries an epoch's worth of batches, the server applies them in
// slice order (a write in batch 0 is visible to a read in batch 2), and
// the responses come back positionally matched.
func TestBatchAccessNRoundTrip(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)

	r, err := Dial(addr, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ids := []uint64{1, 2, 3}
	data := make([]byte, 3*testBlock)
	copy(data[0:], []byte("one"))
	if err := r.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	b0 := store.NewRequests(1, testBlock)
	b0.SetRow(0, store.OpWrite, 2, 0, 0, 0, []byte("from-batch-0"))
	b1 := store.NewRequests(1, testBlock)
	b1.SetRow(0, store.OpRead, 1, 0, 0, 1, nil)
	b2 := store.NewRequests(1, testBlock)
	b2.SetRow(0, store.OpRead, 2, 0, 0, 2, nil)
	sendable(b0)
	sendable(b1)
	sendable(b2)

	outs, err := r.Deliver(store.DeliveryTag{Stream: 1, Epoch: 1}, []*store.Requests{b0, b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d response batches, want 3", len(outs))
	}
	if !bytes.HasPrefix(outs[1].Block(0), []byte("one")) {
		t.Fatalf("batch 1 read wrong: %q", outs[1].Block(0))
	}
	if !bytes.HasPrefix(outs[2].Block(0), []byte("from-batch-0")) {
		t.Fatalf("in-group ordering lost: batch 2 read %q", outs[2].Block(0))
	}

	// A later BatchAccess on the same handle — a one-batch delivery on the
	// handle's own stream — sees the delivery's write.
	q := store.NewRequests(1, testBlock)
	q.SetRow(0, store.OpRead, 2, 0, 0, 0, nil)
	sendable(q)
	out, err := r.BatchAccess(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out.Block(0), []byte("from-batch-0")) {
		t.Fatalf("write lost across deliveries: %q", out.Block(0))
	}
}

// groupPartition records Deliver calls and can fail at a chosen
// call index, for exercising the Window's grouped-delivery contract
// without a network.
type groupPartition struct {
	calls  int
	failAt int // fail the Nth call (1-based); 0 = never
}

func (p *groupPartition) Init(ids []uint64, data []byte) error { return nil }

func (p *groupPartition) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	p.calls++
	if p.failAt > 0 && p.calls == p.failAt {
		return nil, errors.New("injected partition failure")
	}
	outs := make([]*store.Requests, len(reqs))
	for i, r := range reqs {
		outs[i] = r.Clone()
	}
	return outs, nil
}

func groupOf(n int) []*store.Requests {
	rs := make([]*store.Requests, n)
	for i := range rs {
		rs[i] = store.NewRequests(1, testBlock)
		rs[i].SetRow(0, store.OpRead, uint64(i+1), 0, 0, 0, nil)
		sendable(rs[i])
	}
	return rs
}

// TestApplyNReplayAndStale checks at-most-once semantics for grouped
// deliveries: a redelivered tag replays the stored responses without
// touching the partition, an older tag is rejected as stale, and a
// redelivery with a different shape cannot be answered exactly-once.
func TestApplyNReplayAndStale(t *testing.T) {
	p := &groupPartition{}
	w := NewWindow(p)

	tag, reqs := store.DeliveryTag{Stream: 7, Epoch: 5}, groupOf(3)
	outs, replayed, err := w.apply(tag, reqs, nil)
	if err != nil || replayed {
		t.Fatalf("first delivery: outs=%v replayed=%v err=%v", outs, replayed, err)
	}
	if p.calls != 1 {
		t.Fatalf("partition saw %d calls for one delivery, want 1", p.calls)
	}

	// Redelivery of the same tag: replayed, partition untouched.
	outs2, replayed, err := w.apply(tag, reqs, nil)
	if err != nil || !replayed {
		t.Fatalf("redelivery: replayed=%v err=%v", replayed, err)
	}
	if p.calls != 1 {
		t.Fatalf("replay touched the partition (%d calls)", p.calls)
	}
	if len(outs2) != 3 {
		t.Fatalf("replayed %d batches, want 3", len(outs2))
	}

	// Older tag: stale.
	if _, _, err := w.apply(store.DeliveryTag{Stream: 7, Epoch: 4}, groupOf(2), nil); !errors.Is(err, ErrStale) {
		t.Fatalf("stale delivery: err=%v", err)
	}

	// Same tag, different shape: cannot be answered exactly-once.
	if _, _, err := w.apply(tag, groupOf(2), nil); !errors.Is(err, ErrStale) {
		t.Fatalf("misshapen redelivery: err=%v", err)
	}
}

// TestApplyNPartialFailureNotRecorded: a partition that fails a delivery
// fails it whole, and the Window records nothing, so the tag is not
// replayable as a phantom success.
func TestApplyNPartialFailureNotRecorded(t *testing.T) {
	p := &groupPartition{failAt: 1}
	w := NewWindow(p)

	tag, reqs := store.DeliveryTag{Stream: 9, Epoch: 1}, groupOf(3)
	if _, _, err := w.apply(tag, reqs, nil); err == nil {
		t.Fatal("partial failure not reported")
	}
	// The failed tag was not recorded: the same seq applies fresh once the
	// partition recovers.
	p.failAt = 0
	outs, replayed, err := w.apply(tag, reqs, nil)
	if err != nil || replayed {
		t.Fatalf("retry after failure: replayed=%v err=%v", replayed, err)
	}
	if len(outs) != 3 {
		t.Fatalf("retry returned %d batches", len(outs))
	}
}

// discardConn is a net.Conn that swallows writes, for measuring the send
// path without a peer.
type discardConn struct{}

func (discardConn) Read(b []byte) (int, error)         { return 0, errors.New("no reads") }
func (discardConn) Write(b []byte) (int, error)        { return len(b), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// TestSendReqsNZeroAlloc pins the batched seal path's steady-state
// allocation behavior: once the staging buffers have grown to the epoch's
// frame size, encoding and sealing a grouped frame allocates nothing.
func TestSendReqsNZeroAlloc(t *testing.T) {
	key, err := crypt.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	seal, err := crypt.NewSealer(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := &secureConn{conn: discardConn{}, seal: seal}
	rs := groupOf(4)

	// Warm the staging buffers.
	if err := sc.sendReqsN(tagBatchN, store.DeliveryTag{Stream: 1, Epoch: 1}, rs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := sc.sendReqsN(tagBatchN, store.DeliveryTag{Stream: 1, Epoch: 2}, rs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched seal path allocates %v per frame, want 0", allocs)
	}
}
