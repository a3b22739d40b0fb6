package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/wirecode"
)

// tcpPair returns a connected loopback TCP pair. TCP (unlike net.Pipe)
// buffers writes, so a fuzz exchange cannot deadlock on synchronous
// rendezvous while both sides are mid-write.
func tcpPair(tb testing.TB, l net.Listener) (client, server net.Conn) {
	tb.Helper()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		tb.Fatal(a.err)
	}
	return client, a.c
}

// loopbackSecure builds a pre-keyed secureConn pair over c/s, skipping the
// attested handshake: the fuzz target is the frame decoder behind it.
func loopbackSecure(tb testing.TB, c, s net.Conn) (*secureConn, *secureConn) {
	tb.Helper()
	k1, k2 := crypt.MustNewKey(), crypt.MustNewKey()
	mk := func(key crypt.Key, dir uint32) *crypt.Sealer {
		sl, err := crypt.NewSealer(key, dir)
		if err != nil {
			tb.Fatal(err)
		}
		return sl
	}
	cc := &secureConn{conn: c, br: bufio.NewReader(c), seal: mk(k1, 1), open: mk(k2, 2)}
	sc := &secureConn{conn: s, br: bufio.NewReader(s), seal: mk(k2, 2), open: mk(k1, 1)}
	return cc, sc
}

// appendBatchN mirrors secureConn.sendReqsN's plaintext layout so seeds can
// construct (and corrupt) the exact bytes the decoder expects.
func appendBatchN(dst []byte, kind byte, tag store.DeliveryTag, rs []*store.Requests) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, tag.Stream)
	dst = binary.LittleEndian.AppendUint64(dst, tag.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(wirecode.FrameLen(r.Len(), r.BlockSize)))
		dst = wirecode.AppendRequests(dst, r)
	}
	return dst
}

// retiredFrame is the single-batch frame layout tags 0x01/0x02 once carried:
// tag, delivery tag, one bare wirecode frame.
func retiredFrame(tag byte, r *store.Requests) []byte {
	b := append([]byte{tag}, make([]byte, deliveryTagLen)...)
	return wirecode.AppendRequests(b, r)
}

// recordingPartition answers every batch with a copy of it and keeps what it
// was given, so a fuzz target can tell whether a frame was applied.
type recordingPartition struct{ applied []*store.Requests }

func (p *recordingPartition) Init([]uint64, []byte) error { return nil }

func (p *recordingPartition) Deliver(_ store.DeliveryTag, rs []*store.Requests) ([]*store.Requests, error) {
	outs := make([]*store.Requests, len(rs))
	for i, r := range rs {
		p.applied = append(p.applied, r.Clone())
		outs[i] = r.Clone()
	}
	return outs, nil
}

// FuzzServeBatchNDecoder throws mangled batch frames at serveConn: a count
// above maxBatchesPerFrame, a sub-length past the end, truncation, a junk
// wirecode body, trailing bytes, and the retired 0x01/0x02 single-batch
// tags. The server must answer "err" or drop the connection — never panic —
// and it may apply batches only from a frame that is exactly the canonical
// encoding of what it applied.
func FuzzServeBatchNDecoder(f *testing.F) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { l.Close() })

	good := appendBatchN(nil, tagBatchN, store.DeliveryTag{Stream: 7, Epoch: 1}, groupOf(2))
	mangle := func(edit func(b []byte) []byte) []byte { return edit(append([]byte(nil), good...)) }
	const countAt, subLenAt = 1 + deliveryTagLen, 1 + deliveryTagLen + 4
	f.Add(good)
	f.Add(mangle(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[countAt:], maxBatchesPerFrame+1)
		return b
	}))
	f.Add(mangle(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[subLenAt:], uint32(len(b)))
		return b
	}))
	f.Add(good[:len(good)-5])
	f.Add(mangle(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[countAt:], 1)
		binary.LittleEndian.PutUint32(b[subLenAt:], 8)
		return append(b[:subLenAt+4], "junkjunk"...)
	}))
	f.Add(retiredFrame(0x01, groupOf(1)[0]))
	f.Add(retiredFrame(0x02, groupOf(1)[0]))
	f.Add(append(mangle(func(b []byte) []byte { return b }), 1, 2, 3))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1<<14 {
			frame = frame[:1<<14]
		}
		c, s := tcpPair(t, l)
		defer c.Close()
		cc, sc := loopbackSecure(t, c, s)
		part := &recordingPartition{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer s.Close() // a dropped conn must surface to the client immediately
			serveConn(sc, NewWindow(part), newServeTel(nil))
		}()

		c.SetDeadline(time.Now().Add(5 * time.Second))
		var reply *message
		err := cc.writeSealed(frame)
		if err == nil {
			reply, err = cc.recv()
		}
		c.Close()
		<-done

		accepted := err == nil && reply.Kind == "respN"
		if err == nil {
			putAll(reply.reqsN)
			control := len(frame) > 0 && frame[0] == tagControl
			if !accepted && reply.Kind != "err" && !(control && reply.Kind == "ok") {
				t.Fatalf("server answered %q to a mangled frame", reply.Kind)
			}
		}
		if !accepted && len(part.applied) > 0 {
			t.Fatalf("server applied %d batches from a rejected frame", len(part.applied))
		}
		if accepted {
			if want := appendBatchN(nil, tagBatchN, reply.tag, part.applied); !bytes.Equal(want, frame) {
				t.Fatalf("server applied %d batches from a non-canonical frame", len(part.applied))
			}
		}
	})
}

// FuzzDialBatchNReply plays a malicious partition server against
// RemoteSubORAM.Deliver: a reply with the wrong (stream, epoch), the wrong
// batch count, garbage bytes, or a retired 0x02 single-batch frame must be
// an error — never a panic, never an accepted response — and the honest
// reply must be accepted.
func FuzzDialBatchNReply(f *testing.F) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")

	const honest, garbage, retired = 0, 1, 2
	f.Add(uint64(0), uint64(0), uint8(2), uint8(honest))
	f.Add(uint64(1), uint64(0), uint8(2), uint8(honest))
	f.Add(uint64(0), uint64(99), uint8(2), uint8(honest))
	f.Add(uint64(0), uint64(0), uint8(1), uint8(honest))
	f.Add(uint64(0), uint64(0), uint8(2), uint8(garbage))
	f.Add(uint64(0), uint64(0), uint8(1), uint8(retired))

	f.Fuzz(func(t *testing.T, lbDelta, seqDelta uint64, replyCount, mode uint8) {
		if replyCount > 8 || mode > retired {
			t.Skip()
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		srvDone := make(chan struct{})
		go func() {
			defer close(srvDone)
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			sc, err := serverHandshake(conn, platform, m)
			if err != nil {
				return
			}
			req, err := sc.recv()
			if err != nil {
				return
			}
			putAll(req.reqsN)
			switch mode {
			case garbage:
				sc.writeSealed([]byte{0xee, 0xbe, 0xef})
			case retired:
				sc.writeSealed(retiredFrame(0x02, groupOf(1)[0]))
			default:
				sc.sendReqsN(tagRespN, store.DeliveryTag{Stream: req.tag.Stream + lbDelta, Epoch: req.tag.Epoch + seqDelta}, groupOf(int(replyCount)))
			}
		}()

		r, err := DialOptions(l.Addr().String(), platform, m, Options{RPCTimeout: 5 * time.Second, MaxRetries: -1})
		if err != nil {
			t.Skip() // listener race; nothing to check
		}
		defer r.Close()

		outs, err := r.Deliver(store.DeliveryTag{Stream: 7, Epoch: 1}, groupOf(2))
		tampered := mode != honest || lbDelta != 0 || seqDelta != 0 || replyCount != 2
		if tampered && err == nil {
			t.Fatalf("Deliver accepted a tampered reply (lbΔ=%d seqΔ=%d count=%d mode=%d)",
				lbDelta, seqDelta, replyCount, mode)
		}
		if !tampered && (err != nil || len(outs) != 2) {
			t.Fatalf("Deliver rejected the honest reply: %d batches, %v", len(outs), err)
		}
		if err == nil {
			putAll(outs)
		}
		<-srvDone
	})
}
