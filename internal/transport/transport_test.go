package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 32

func startServer(t *testing.T, platform *enclave.Platform, m enclave.Measurement) string {
	t.Helper()
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeSubORAM(l, sub, platform, m, nil)
	return l.Addr().String()
}

func TestRemoteSubORAMRoundTrip(t *testing.T) {
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
	copy(data[testBlock:], []byte("two"))
	if err := r.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	reqs := store.NewRequests(2, testBlock)
	reqs.SetRow(0, store.OpRead, 2, 0, 0, 0, nil)
	reqs.SetRow(1, store.OpWrite, 3, 0, 1, 1, []byte("three!"))
	out, err := r.BatchAccess(sendable(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("got %d responses", out.Len())
	}
	for i := 0; i < 2; i++ {
		if out.Key[i] == 2 && !bytes.HasPrefix(out.Block(i), []byte("two")) {
			t.Fatalf("read over wire wrong: %q", out.Block(i))
		}
	}

	// The write persisted.
	reqs2 := store.NewRequests(1, testBlock)
	reqs2.SetRow(0, store.OpRead, 3, 0, 0, 0, nil)
	out2, err := r.BatchAccess(sendable(reqs2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out2.Block(0), []byte("three!")) {
		t.Fatalf("write over wire lost: %q", out2.Block(0))
	}
}

// TestUnknownControlKindFailsClosed: a control message the server does not
// serve — including the retired liveness probe — is answered "err" and
// the connection keeps serving.
func TestUnknownControlKindFailsClosed(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, s := tcpPair(t, l)
	defer c.Close()
	cc, sc := loopbackSecure(t, c, s)
	go func() {
		defer s.Close()
		serveConn(sc, NewWindow(&recordingPartition{}), newServeTel(nil))
	}()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	for _, kind := range []string{"ping", "bogus", "ok", "init"} {
		if err := cc.send(&message{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		reply, err := cc.recv()
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		want := "err"
		if kind == "init" { // the connection still serves what it knows
			want = "ok"
		}
		if reply.Kind != want {
			t.Fatalf("%q answered %q, want %q", kind, reply.Kind, want)
		}
	}
}

func TestDialRejectsWrongMeasurement(t *testing.T) {
	platform := enclave.NewPlatform()
	addr := startServer(t, platform, enclave.Measure("genuine"))
	if _, err := Dial(addr, platform, enclave.Measure("expected-other")); err == nil {
		t.Fatal("wrong measurement accepted")
	}
}

func TestDialRejectsWrongPlatform(t *testing.T) {
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, enclave.NewPlatform(), m)
	if _, err := Dial(addr, enclave.NewPlatform(), m); err == nil {
		t.Fatal("foreign platform accepted")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	r, err := Dial(addr, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Duplicate ids must surface as a remote error.
	if err := r.Init([]uint64{5, 5}, make([]byte, 2*testBlock)); err == nil {
		t.Fatal("remote Init error not propagated")
	}
}

// TestFullSystemOverTCP runs the complete Snoopy system against subORAMs
// living behind real sockets.
func TestFullSystemOverTCP(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	var subs []core.SubORAMClient
	for i := 0; i < 3; i++ {
		addr := startServer(t, platform, m)
		r, err := Dial(addr, platform, m)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		subs = append(subs, r)
	}
	tk := time.NewTicker(2 * time.Millisecond)
	defer tk.Stop()
	sys, err := core.NewWithSubORAMs(core.Config{
		BlockSize: testBlock, NumLoadBalancers: 2, Lambda: 32, Ticks: tk.C,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	n := 50
	ids := make([]uint64, n)
	data := make([]byte, n*testBlock)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*testBlock] = byte(i)
	}
	if err := sys.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := do(sys, core.Request{Op: store.OpWrite, Key: 7, Value: []byte("over-tcp")}); err != nil {
		t.Fatal(err)
	}
	v, found, err := do(sys, core.Request{Op: store.OpRead, Key: 7})
	if err != nil || !found || !bytes.HasPrefix(v, []byte("over-tcp")) {
		t.Fatalf("tcp system read: %q %v %v", v, found, err)
	}
}

func TestServerDeathSurfacesAsError(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeSubORAM(l, sub, platform, m, nil)
	r, err := Dial(l.Addr().String(), platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	l.Close() // kill the "machine" — existing conns die with the listener? no: kill via closing our side's peer
	// Closing the listener stops accepts but not the live connection; to
	// simulate a crash, close the client connection from underneath and
	// observe the error rather than a hang or silent wrong answer.
	r.sc.conn.Close()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
	if _, err := r.BatchAccess(sendable(reqs)); err == nil {
		t.Fatal("dead connection produced a response")
	}
	// A fresh server and Dial recovers (listener is gone, so start anew).
	addr2 := startServer(t, platform, m)
	r2, err := Dial(addr2, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.BatchAccess(reqs); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	// A man-in-the-middle flipping ciphertext bits must cause a decode
	// failure, not silent corruption. Simulate by sending garbage directly.
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc, err := clientHandshake(conn, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	// Send a frame sealed under the wrong key (a fresh sealer).
	rogue, _ := crypt.NewSealer(crypt.MustNewKey(), 1)
	payload := rogue.Seal([]byte("garbage"), nil)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	// The server drops the connection; our next receive must error.
	if _, err := sc.recv(); err == nil {
		t.Fatal("server answered a forged frame")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc, err := clientHandshake(conn, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	conn.Write(hdr[:])
	if _, err := sc.recv(); err == nil {
		t.Fatal("oversized frame did not kill the session")
	}
}

func TestRemoteConcurrentCallers(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)
	r, err := Dial(addr, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := r.Init(ids, make([]byte, 64*testBlock)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 5; i++ {
				reqs := store.NewRequests(2, testBlock)
				reqs.SetRow(0, store.OpRead, uint64((g*5+i)%64), 0, 0, 0, nil)
				reqs.SetRow(1, store.OpRead, uint64((g*5+i+32)%64), 0, 1, 1, nil)
				if _, err := r.BatchAccess(sendable(reqs)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
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
