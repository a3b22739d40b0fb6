package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a connected TCP pair (real sockets, so deadlines work).
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestNoFaultsPassThrough(t *testing.T) {
	c, s := pipePair(t)
	fc := Wrap(c, NoFaults(), NoFaults())
	msg := []byte("hello, faultnet")
	done := make(chan struct{})
	go func() {
		defer close(done)
		fc.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// The reader can see the bytes before Write returns and advances the
	// offset: wait for the writer.
	<-done
	if fc.WriteOffset() != int64(len(msg)) {
		t.Fatalf("write offset %d", fc.WriteOffset())
	}
}

func TestCorruptAtFlipsExactlyOneByte(t *testing.T) {
	c, s := pipePair(t)
	plan := NoFaults()
	plan.CorruptAt = 3
	fc := Wrap(c, NoFaults(), plan)
	msg := []byte("0123456789")
	go fc.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
			if i != 3 {
				t.Fatalf("byte %d corrupted, want only 3", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes corrupted, want 1", diff)
	}
	// The caller's buffer must not be mutated.
	if !bytes.Equal(msg, []byte("0123456789")) {
		t.Fatal("write corrupted the caller's buffer")
	}
}

func TestCloseAfterTruncatesMidStream(t *testing.T) {
	c, s := pipePair(t)
	plan := NoFaults()
	plan.CloseAfter = 5
	fc := Wrap(c, NoFaults(), plan)
	n, err := fc.Write([]byte("0123456789"))
	if n != 5 || err == nil {
		t.Fatalf("write: n=%d err=%v, want 5 bytes then error", n, err)
	}
	got, _ := io.ReadAll(s)
	if string(got) != "01234" {
		t.Fatalf("peer received %q", got)
	}
	// Subsequent writes stay failed.
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write after injected close succeeded")
	}
}

func TestStallAfterBlocksUntilClose(t *testing.T) {
	c, s := pipePair(t)
	plan := NoFaults()
	plan.StallAfter = 0
	fc := Wrap(c, plan, NoFaults())
	go s.Write([]byte("data the reader must never see"))

	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := fc.Read(buf)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("stalled read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("stalled read returned nil after close")
		}
	case <-time.After(time.Second):
		t.Fatal("stalled read not released by Close")
	}
}

func TestRuntimePlanSwap(t *testing.T) {
	c, s := pipePair(t)
	fc := Wrap(c, NoFaults(), NoFaults())
	go s.Write([]byte("first"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	// Stall everything from the current offset on.
	plan := NoFaults()
	plan.StallAfter = fc.ReadOffset()
	fc.SetReadPlan(plan)
	go s.Write([]byte("second"))
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Read(buf)
		errCh <- err
	}()
	select {
	case <-errCh:
		t.Fatal("read after swapped-in stall returned")
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	<-errCh
}

func TestLatencyDelaysOps(t *testing.T) {
	c, s := pipePair(t)
	plan := NoFaults()
	plan.Latency = 30 * time.Millisecond
	fc := Wrap(c, plan, NoFaults())
	go s.Write([]byte("x"))
	t0 := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("read returned in %v, want >= ~30ms", d)
	}
}

func TestListenerKill(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := WrapListener(inner, nil)
	defer l.Close()

	// Echo server over the wrapped listener.
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()
	c, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	// The live connection is severed: reads drain and then fail.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err == nil {
		t.Fatal("connection survived Kill")
	}
	// And the listener no longer accepts.
	if _, err := net.DialTimeout("tcp", inner.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener survived Kill")
	}
}
