package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/faultnet"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// fastRetry keeps fault tests quick: small backoff, short deadlines.
func fastRetry() Options {
	return Options{
		DialTimeout: 2 * time.Second,
		RPCTimeout:  5 * time.Second,
		retryBase:   5 * time.Millisecond,
		retryMax:    50 * time.Millisecond,
	}
}

// noRetry is fastRetry with retries disabled (a negative MaxRetries).
func noRetry() Options {
	o := fastRetry()
	o.MaxRetries = -1
	return o
}

// faultDialer wraps the first dialed connection in a faultnet.Conn (handed
// to the test through the channel) and passes later reconnects through
// untouched.
func faultDialer(firstCh chan<- *faultnet.Conn) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	var mu sync.Mutex
	sent := false
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if !sent {
			sent = true
			fc := faultnet.Wrap(c, faultnet.NoFaults(), faultnet.NoFaults())
			firstCh <- fc
			return fc, nil
		}
		return c, nil
	}
}

func oneReadReq(key uint64) *store.Requests {
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 0, 0, nil)
	return sendable(reqs)
}

// sendable stamps reqs with a table key and puts it in that key's table
// order, as a load balancer sends a batch. It returns reqs.
func sendable(reqs *store.Requests) *store.Requests {
	ohash.Order(reqs, crypt.SipKey{1, 2})
	return reqs
}

// TestFaultMatrix drives the client's receive path through scripted wire
// faults. Every case must surface an error — never a panic, a hang, or a
// silently wrong answer — and do so well inside the RPC deadline.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		// arm mutates the read plan given the current read offset.
		arm func(p *faultnet.Plan, off int64)
	}{
		// Flipping the first length-prefix byte turns the 4-byte big-endian
		// length into ~1 GiB: recv must reject it as oversized, not allocate.
		{"oversized length prefix", func(p *faultnet.Plan, off int64) { p.CorruptAt = off }},
		// Flipping a byte inside the sealed body must fail AEAD opening.
		{"corrupt ciphertext", func(p *faultnet.Plan, off int64) { p.CorruptAt = off + 6 }},
		// Closing mid-frame truncates the response: recv sees a short read.
		{"truncated frame", func(p *faultnet.Plan, off int64) { p.CloseAfter = off + 7 }},
	}
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := startServer(t, platform, m)
			firstCh := make(chan *faultnet.Conn, 1)
			opts := noRetry()
			opts.dialer = faultDialer(firstCh)
			r, err := DialOptions(addr, platform, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			fc := <-firstCh
			if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
				t.Fatal(err)
			}
			plan := faultnet.NoFaults()
			tc.arm(&plan, fc.ReadOffset())
			fc.SetReadPlan(plan)

			t0 := time.Now()
			_, err = r.BatchAccess(oneReadReq(1))
			if err == nil {
				t.Fatal("faulted response produced a result")
			}
			if d := time.Since(t0); d > 3*time.Second {
				t.Fatalf("error took %v, want well inside the RPC deadline", d)
			}
		})
	}
}

// TestHandshakeTornMidReport cuts the connection while the client is
// reading the server's attestation report: Dial must fail, not hang.
func TestHandshakeTornMidReport(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	opts := noRetry()
	opts.dialer = func(network, a string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, a, timeout)
		if err != nil {
			return nil, err
		}
		read := faultnet.NoFaults()
		read.CloseAfter = 10 // mid server-hello: pub key + report are ~hundreds of bytes
		return faultnet.Wrap(c, read, faultnet.NoFaults()), nil
	}
	t0 := time.Now()
	if _, err := DialOptions(addr, platform, m, opts); err == nil {
		t.Fatal("torn handshake produced a connection")
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("torn handshake took %v to fail", d)
	}
}

// TestRPCDeadlineFiresOnUnresponsiveServer points the client at a server
// that completes the attested handshake and then swallows every frame: the
// per-attempt RPC deadline, not the test timeout, must end the call.
func TestRPCDeadlineFiresOnUnresponsiveServer(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sc, err := serverHandshake(conn, platform, m)
				if err != nil {
					return
				}
				buf := make([]byte, 4096)
				for { // black hole: read and never answer
					if _, err := sc.conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	opts := noRetry()
	opts.RPCTimeout = 300 * time.Millisecond
	r, err := DialOptions(l.Addr().String(), platform, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	t0 := time.Now()
	_, err = r.BatchAccess(oneReadReq(1))
	if err == nil {
		t.Fatal("unresponsive server produced a response")
	}
	if d := time.Since(t0); d < 200*time.Millisecond || d > 3*time.Second {
		t.Fatalf("deadline fired after %v, want ~300ms", d)
	}
}

// countingPartition counts the batches it applies so replay tests can
// assert at-most-once delivery.
type countingPartition struct {
	Partition
	batches atomic.Int64
}

func (p *countingPartition) Deliver(tag store.DeliveryTag, rs []*store.Requests) ([]*store.Requests, error) {
	p.batches.Add(int64(len(rs)))
	return p.Partition.Deliver(tag, rs)
}

// TestReconnectReplaysDuplicateDelivery loses a response in flight after the
// server applied the batch. The client must redial, re-run the attested
// handshake, and re-deliver the same delivery tag; the server must answer
// from its Window without re-applying — the at-most-once property.
func TestReconnectReplaysDuplicateDelivery(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	cp := &countingPartition{Partition: suboram.New(suboram.Config{BlockSize: testBlock})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeSubORAM(l, cp, platform, m, nil)

	firstCh := make(chan *faultnet.Conn, 1)
	opts := fastRetry()
	opts.dialer = faultDialer(firstCh)
	r, err := DialOptions(l.Addr().String(), platform, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fc := <-firstCh
	if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}

	// Batch 1 goes through cleanly.
	w1 := store.NewRequests(1, testBlock)
	w1.SetRow(0, store.OpWrite, 1, 0, 0, 0, []byte("v1"))
	sendable(w1)
	if _, err := r.BatchAccess(w1); err != nil {
		t.Fatal(err)
	}

	// Lose the response to batch 2: the connection dies the moment the
	// server's reply reaches the client, after the server already applied.
	plan := faultnet.NoFaults()
	plan.CloseAfter = fc.ReadOffset()
	fc.SetReadPlan(plan)
	w2 := store.NewRequests(1, testBlock)
	w2.SetRow(0, store.OpWrite, 1, 0, 0, 0, []byte("v2"))
	sendable(w2)
	out, err := r.BatchAccess(w2)
	if err != nil {
		t.Fatalf("retried delivery failed: %v", err)
	}
	if out.Len() != 1 {
		t.Fatalf("replayed response has %d rows", out.Len())
	}

	// The write landed exactly once and reads back correctly.
	got, err := r.BatchAccess(oneReadReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Block(0), []byte("v2")) {
		t.Fatalf("after replayed write, read %q", got.Block(0))
	}
	// 3 client calls → exactly 3 applications: the re-delivered batch 2 was
	// answered from the Window, not re-applied.
	if n := cp.batches.Load(); n != 3 {
		t.Fatalf("partition applied %d batches, want 3 (no double-apply)", n)
	}
}

// TestStaleDeliveryRejected hands the server a delivery tag below its
// replay window; the server must refuse rather than double-apply or replay
// the wrong response.
func TestStaleDeliveryRejected(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	r, err := DialOptions(addr, platform, m, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= replayWindow; i++ {
		if _, err := r.BatchAccess(oneReadReq(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Rewind the client's delivery counter: the next batch carries a tag
	// older than the server's replay window and must be rejected as a
	// RemoteError.
	r.mu.Lock()
	r.own.Epoch = 0
	r.mu.Unlock()
	_, err = r.BatchAccess(oneReadReq(1))
	if err == nil {
		t.Fatal("stale delivery was answered")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("stale delivery error %v is not a RemoteError", err)
	}
}

// TestCloseUnblocksStalledRPC is the regression test for the Close deadlock:
// Close must return promptly even while an RPC is blocked reading from a
// stalled peer, and the blocked RPC must fail with ErrClosed instead of
// retrying forever.
func TestCloseUnblocksStalledRPC(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	firstCh := make(chan *faultnet.Conn, 1)
	opts := fastRetry()
	opts.RPCTimeout = time.Hour // the stall must be broken by Close, not the deadline
	opts.dialer = faultDialer(firstCh)
	r, err := DialOptions(addr, platform, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	fc := <-firstCh
	if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	plan := faultnet.NoFaults()
	plan.StallAfter = fc.ReadOffset()
	fc.SetReadPlan(plan)

	errCh := make(chan error, 1)
	go func() {
		_, err := r.BatchAccess(oneReadReq(1))
		errCh <- err
	}()
	// Let the RPC reach the stalled read.
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	if err := r.Close(); err != nil && time.Since(t0) > time.Second {
		t.Fatalf("Close blocked %v: %v", time.Since(t0), err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("Close took %v with an RPC in flight", d)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("stalled RPC returned a response after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled RPC still blocked after Close")
	}
}

// TestKillAndRestartServerResumes crashes the server process mid-run — the
// listener and every live connection die at once — then restarts it on the
// same address with the same Window, whose delivery record both listener
// incarnations serve. A client with a retry budget must ride out the
// outage: redial, re-attest, and resume.
func TestKillAndRestartServerResumes(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	win := NewWindow(suboram.New(suboram.Config{BlockSize: testBlock}))
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.WrapListener(inner, nil)
	go ServeSubORAM(fl, win, platform, m, nil)
	addr := inner.Addr().String()

	opts := fastRetry()
	opts.MaxRetries = 20
	r, err := DialOptions(addr, platform, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	w := store.NewRequests(1, testBlock)
	w.SetRow(0, store.OpWrite, 1, 0, 0, 0, []byte("pre-crash"))
	sendable(w)
	if _, err := r.BatchAccess(w); err != nil {
		t.Fatal(err)
	}

	fl.Kill() // crash: listener gone, live connections severed

	restartErr := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // client sees the outage first
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			restartErr <- err
			return
		}
		restartErr <- nil
		ServeSubORAM(l2, win, platform, m, nil)
	}()

	// This call spans the crash: early attempts fail, later ones land on the
	// restarted server after a fresh attested handshake.
	got, err := r.BatchAccess(oneReadReq(1))
	if err != nil {
		t.Fatalf("client did not resume across restart: %v", err)
	}
	if !bytes.HasPrefix(got.Block(0), []byte("pre-crash")) {
		t.Fatalf("state lost across restart: %q", got.Block(0))
	}
	if err := <-restartErr; err != nil {
		t.Fatalf("restart listen: %v", err)
	}
}
