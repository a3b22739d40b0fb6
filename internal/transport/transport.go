// Package transport carries Snoopy's load-balancer ↔ subORAM protocol over
// TCP, modeling the paper's deployment (§3.1): every channel is established
// with remote attestation — the client verifies the server enclave's
// measurement before trusting it — and all traffic is encrypted with an
// authenticated scheme under a per-channel key with monotone nonces
// (replay-proof).
//
// Handshake: client sends its X25519 public key; the server replies with
// its own public key plus an attestation report binding the enclave
// measurement to a digest of the handshake transcript. Both sides derive
// the shared secret and split it into two directional sealing keys.
//
// Failure model (§3.1, §9: machines fail): every RPC runs under a deadline,
// and a RemoteSubORAM that loses its connection redials and re-runs the
// full attested handshake under exponential backoff with jitter, within a
// bounded retry budget. Batch frames carry the root's delivery tag
// (store.DeliveryTag); the server serves its partition through a Window,
// which remembers the last responses per stream and answers a redelivered
// batch by replaying the stored response instead of re-applying it, so an
// ambiguous failure (response lost in flight) cannot double-apply writes —
// the at-most-once property linearizability needs. All timeout and retry
// parameters derive from public configuration (Options) and fixed
// constants, never from request contents, so retry timing leaks nothing the
// batch schedule does not already make public.
package transport

import (
	"bufio"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/wirecode"
)

// maxFrame bounds a single message (64 MiB) to stop a malicious peer from
// forcing unbounded allocation.
const maxFrame = 64 << 20

// Envelope tags: the first plaintext byte of every sealed frame selects the
// payload codec. Control traffic (handshake-adjacent init/ok/err) stays gob
// — it is rare and schema-flexible. Batches travel in one frame form: an
// epoch's worth of batches (one per load balancer, one for a single-batch
// call) under a single 16-byte (stream, epoch) delivery tag and a single AEAD
// seal/open — delivery tag, a u32 batch count, then count length-prefixed
// fixed-layout wirecode frames. Every length is a closed-form function of
// the public batch sizes (see internal/wirecode). Tags 0x01 and 0x02, the
// retired single-batch frames, decode as unknown.
const (
	tagControl = 0x00 // gob-encoded message
	tagBatchN  = 0x03 // delivery tag + u32 count + count wirecode request batches
	tagRespN   = 0x04 // delivery tag + u32 count + count wirecode response batches
)

// deliveryTagLen is the fixed (stream, epoch) prefix on batch/response
// frames.
const deliveryTagLen = 16

// maxBatchesPerFrame bounds the batch count of a grouped frame so a
// malicious peer cannot force unbounded slice allocation. Far above any
// real deployment's load-balancer count (cf. maxStreams).
const maxBatchesPerFrame = 1024

// ErrClosed is returned for RPCs on a RemoteSubORAM after Close.
var ErrClosed = errors.New("transport: connection closed")

// ErrStale marks a delivery whose tag a Window already applied but can no
// longer answer — older than its window, or redelivered with a different
// batch count — so it is refused rather than re-applied. Distinct from
// partition errors so the server's telemetry can count stale rejects
// separately from real failures.
var ErrStale = errors.New("transport: stale batch delivery")

// RemoteError is an application-level error reported by the server's
// partition (as opposed to a connection failure). RemoteErrors are never
// retried: the channel is healthy and a retry would re-run a failed
// partition operation.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Options sets the failure-handling parameters of a dialed connection. All
// values are public deployment configuration: timeouts and retry schedules
// are functions of these alone, never of request contents. Init ships the
// whole partition, so each Init attempt gets max(RPCTimeout, 2m).
type Options struct {
	// DialTimeout bounds TCP connect plus the attested handshake
	// (default 5s).
	DialTimeout time.Duration
	// RPCTimeout bounds one delivery attempt — send, remote execution,
	// and response read (default 30s).
	RPCTimeout time.Duration
	// MaxRetries is how many times a failed RPC redials and retries after
	// the first attempt (default 4; negative disables retries).
	MaxRetries int
	// Telemetry, when non-nil, records client-side RPC latency and
	// retry/reconnect/failure counters. Recording sites fire per RPC and
	// per retry attempt — a function of the public epoch schedule and of
	// connection failures the network adversary observes directly.
	Telemetry *telemetry.Registry

	// retryBase and retryMax shape the exponential backoff between
	// attempts: sleep_k = min(retryBase·2^k, retryMax), each multiplied by
	// a uniform jitter in [0.5, 1.5) (defaults 50ms and 2s). The fault
	// tests shorten them.
	retryBase, retryMax time.Duration
	// dialer replaces net.DialTimeout; the fault tests wrap connections
	// here.
	dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.retryBase <= 0 {
		o.retryBase = 50 * time.Millisecond
	}
	if o.retryMax <= 0 {
		o.retryMax = 2 * time.Second
	}
	if o.dialer == nil {
		o.dialer = net.DialTimeout
	}
	return o
}

// OptionsForEpoch derives RPC deadlines from the deployment's public epoch
// duration (snoopy.Config.Epoch): a batch that takes much longer
// than a handful of epochs is stuck, not slow. The floor keeps short-epoch
// deployments from timing out on honest large batches.
func OptionsForEpoch(epoch time.Duration) Options {
	o := Options{}
	if epoch > 0 {
		rpc := 20 * epoch
		if rpc < 2*time.Second {
			rpc = 2 * time.Second
		}
		o.RPCTimeout = rpc
	}
	return o.withDefaults()
}

// message is the protocol envelope. Only the exported fields travel in gob
// control frames; reqsN carries the batches decoded from a tagBatchN/
// tagRespN frame (or to be encoded into one) and never passes through gob.
// tag is the delivery tag of batch/response frames.
type message struct {
	Kind  string // "init" | "ok" | "err" | "batchN" | "respN"
	IDs   []uint64
	Data  []byte
	Error string

	reqsN []*store.Requests
	tag   store.DeliveryTag
}

// secureConn frames tagged messages through AEAD sealing. Send and receive
// buffers are reused across messages: the steady-state batch path performs
// no per-message allocation beyond the pooled decode target. Sends are
// serialized by sendMu; receives assume a single reader (the serve loop on
// the server, the RemoteSubORAM mutex on the client).
type secureConn struct {
	conn net.Conn
	br   *bufio.Reader

	sendMu sync.Mutex
	seal   *crypt.Sealer // our sending direction
	ptBuf  []byte        // plaintext staging (tag + payload)
	ctBuf  []byte        // length prefix + sealed frame

	open  *crypt.Sealer // peer's sending direction
	rcvCt []byte        // ciphertext receive buffer
	rcvPt []byte        // opened plaintext (valid until next recv)
}

// setDeadline arms (or, with zero, disarms) an absolute I/O deadline on the
// underlying connection covering both directions.
func (c *secureConn) setDeadline(d time.Duration) {
	if d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// send transmits a gob control message (tagControl).
func (c *secureConn) send(m *message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	w := sliceWriter{b: append(c.ptBuf[:0], tagControl)}
	if err := gob.NewEncoder(&w).Encode(m); err != nil {
		return err
	}
	c.ptBuf = w.b
	return c.writeSealed(c.ptBuf)
}

// sendReqsN transmits one epoch's batches as a single grouped frame: one
// delivery tag, one AEAD seal, one write for all of them. The plaintext
// buffer is pre-sized from the known frame lengths, so steady-state
// encoding is a pure copy.
func (c *secureConn) sendReqsN(kind byte, tag store.DeliveryTag, rs []*store.Requests) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	need := 1 + deliveryTagLen + 4
	for _, r := range rs {
		need += 4 + wirecode.FrameLen(r.Len(), r.BlockSize)
	}
	if cap(c.ptBuf) < need {
		c.ptBuf = make([]byte, 0, need)
	}
	b := append(c.ptBuf[:0], kind)
	b = binary.LittleEndian.AppendUint64(b, tag.Stream)
	b = binary.LittleEndian.AppendUint64(b, tag.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint32(b, uint32(wirecode.FrameLen(r.Len(), r.BlockSize)))
		b = wirecode.AppendRequests(b, r)
	}
	c.ptBuf = b
	return c.writeSealed(c.ptBuf)
}

// writeSealed seals pt into the reused ciphertext buffer behind a 4-byte
// big-endian length prefix and writes the whole frame in one call.
func (c *secureConn) writeSealed(pt []byte) error {
	c.ctBuf = append(c.ctBuf[:0], 0, 0, 0, 0)
	c.ctBuf = c.seal.SealAppend(c.ctBuf, pt, nil)
	binary.BigEndian.PutUint32(c.ctBuf[:4], uint32(len(c.ctBuf)-4))
	_, err := c.conn.Write(c.ctBuf)
	return err
}

func (c *secureConn) recv() (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if cap(c.rcvCt) < n {
		c.rcvCt = make([]byte, n)
	}
	buf := c.rcvCt[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	pt, err := c.open.OpenAppend(c.rcvPt[:0], buf, nil)
	if err != nil {
		return nil, err
	}
	c.rcvPt = pt // retain grown capacity for the next message
	if len(pt) < 1 {
		return nil, fmt.Errorf("transport: empty frame")
	}
	tag, payload := pt[0], pt[1:]
	switch tag {
	case tagControl:
		var m message
		if err := gob.NewDecoder(newByteReader(payload)).Decode(&m); err != nil {
			return nil, err
		}
		return &m, nil
	case tagBatchN, tagRespN:
		if len(payload) < deliveryTagLen+4 {
			return nil, fmt.Errorf("transport: frame too short for grouped delivery tag")
		}
		dt := store.DeliveryTag{
			Stream: binary.LittleEndian.Uint64(payload),
			Epoch:  binary.LittleEndian.Uint64(payload[8:]),
		}
		count := binary.LittleEndian.Uint32(payload[deliveryTagLen:])
		if count > maxBatchesPerFrame {
			return nil, fmt.Errorf("transport: grouped frame of %d batches exceeds limit", count)
		}
		rest := payload[deliveryTagLen+4:]
		rs := make([]*store.Requests, count)
		for i := range rs {
			if len(rest) < 4 {
				putAll(rs[:i])
				return nil, fmt.Errorf("transport: grouped frame truncated at batch %d", i)
			}
			fl := int(binary.LittleEndian.Uint32(rest))
			if fl < 0 || fl > len(rest)-4 {
				putAll(rs[:i])
				return nil, fmt.Errorf("transport: grouped frame sub-length %d out of range", fl)
			}
			r, err := wirecode.DecodeRequests(rest[4:4+fl], arena.Default)
			if err != nil {
				putAll(rs[:i])
				return nil, err
			}
			rs[i] = r
			rest = rest[4+fl:]
		}
		if len(rest) != 0 {
			putAll(rs)
			return nil, fmt.Errorf("transport: grouped frame has %d trailing bytes", len(rest))
		}
		kind := "batchN"
		if tag == tagRespN {
			kind = "respN"
		}
		return &message{Kind: kind, reqsN: rs, tag: dt}, nil
	default:
		return nil, fmt.Errorf("transport: unknown frame tag %#x", tag)
	}
}

// putAll releases a prefix of decoded batches back to the arena (grouped
// frame decode-error cleanup).
func putAll(rs []*store.Requests) {
	for _, r := range rs {
		arena.Default.PutRequests(r)
	}
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// deriveKeys splits an ECDH shared secret into two directional keys.
func deriveKeys(secret []byte) (clientToServer, serverToClient crypt.Key) {
	a := sha256.Sum256(append([]byte("c2s|"), secret...))
	b := sha256.Sum256(append([]byte("s2c|"), secret...))
	return crypt.Key(a), crypt.Key(b)
}

// Partition is the server-side subORAM surface: a plain *suboram.SubORAM or
// a durable one (*persist.Durable), each applying a delivery whole or not.
type Partition interface {
	Init(ids []uint64, data []byte) error
	Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error)
}

// Server deadlines: the attested handshake on a fresh connection, so a
// half-open client cannot pin a goroutine, and each response write, so a
// client that stops reading cannot wedge the serve loop. Reads have none:
// load balancers legitimately idle between epochs.
const (
	handshakeTimeout = 10 * time.Second
	writeTimeout     = 30 * time.Second
)

// serveTel holds the server-side instruments, resolved once per listener so
// the serve loop does no registry lookups. All nil (no-ops) without a
// registry. Every site fires once per protocol message — events the host
// already observes on the wire.
type serveTel struct {
	reg      *telemetry.Registry
	conns    *telemetry.Counter
	batches  *telemetry.Counter
	replays  *telemetry.Counter
	stale    *telemetry.Counter
	inits    *telemetry.Counter
	batchDur *telemetry.Histogram
}

func newServeTel(reg *telemetry.Registry) *serveTel {
	return &serveTel{
		reg:      reg,
		conns:    reg.Counter("transport_conns_total"),
		batches:  reg.Counter("transport_batches_served_total"),
		replays:  reg.Counter("transport_replays_total"),
		stale:    reg.Counter("transport_stale_rejects_total"),
		inits:    reg.Counter("transport_init_total"),
		batchDur: reg.Histogram("transport_batch_serve", nil),
	}
}

// ServeSubORAM accepts connections on l and serves sub until the listener
// closes. Each connection performs the attested handshake with the given
// platform and measurement. Every delivery goes through one Window: sub
// itself when it is one — a caller that restarts the listener passes the
// same Window to keep its delivery record — else a fresh one around sub.
// reg, when non-nil, records the serving counters (connections, batches,
// replays, stale rejects, inits) and batch service latency.
func ServeSubORAM(l net.Listener, sub Partition, platform *enclave.Platform, m enclave.Measurement, reg *telemetry.Registry) error {
	w, ok := sub.(*Window)
	if !ok {
		w = NewWindow(sub)
	}
	tel := newServeTel(reg)
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(handshakeTimeout))
			sc, err := serverHandshake(conn, platform, m)
			if err != nil {
				return
			}
			conn.SetDeadline(time.Time{})
			tel.conns.Inc()
			serveConn(sc, w, tel)
		}()
	}
}

func serveConn(sc *secureConn, w *Window, tel *serveTel) {
	var outs []*store.Requests // the connection's response slice, reused
	for {
		m, err := sc.recv()
		if err != nil {
			return
		}
		sc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		switch m.Kind {
		case "init":
			tel.inits.Inc()
			reply := message{Kind: "ok"}
			if err := w.Init(m.IDs, m.Data); err != nil {
				reply = message{Kind: "err", Error: err.Error()}
			}
			if err := sc.send(&reply); err != nil {
				return
			}
		case "batchN":
			// Counted once per contained batch, with one latency observation
			// per frame. Replays and stale rejects (at-most-once
			// bookkeeping) are counted separately.
			tel.batches.Add(uint64(len(m.reqsN)))
			tb0 := tel.reg.Now()
			res, replayed, err := w.apply(m.tag, m.reqsN, outs[:0])
			putAll(m.reqsN) // batches consumed
			if err != nil {
				if errors.Is(err, ErrStale) {
					tel.stale.Inc()
				}
				if err := sc.send(&message{Kind: "err", Error: err.Error()}); err != nil {
					return
				}
				continue
			}
			outs = res
			if replayed {
				tel.replays.Inc()
			}
			tel.batchDur.Observe(time.Duration(tel.reg.Now() - tb0))
			sendErr := sc.sendReqsN(tagRespN, m.tag, outs)
			putAll(outs)
			if sendErr != nil {
				return
			}
		default:
			if err := sc.send(&message{Kind: "err", Error: "unknown message kind"}); err != nil {
				return
			}
		}
	}
}

func serverHandshake(conn net.Conn, platform *enclave.Platform, m enclave.Measurement) (*secureConn, error) {
	br := bufio.NewReader(conn)
	// Receive client public key (32 bytes).
	var clientPub [32]byte
	if _, err := io.ReadFull(br, clientPub[:]); err != nil {
		return nil, err
	}
	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	peer, err := curve.NewPublicKey(clientPub[:])
	if err != nil {
		return nil, err
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return nil, err
	}
	// Attest to the transcript: both public keys.
	transcript := crypt.DigestOf(append(append([]byte{}, clientPub[:]...), priv.PublicKey().Bytes()...))
	report := platform.Attest(m, transcript)
	// Send server public key + report (gob, in the clear — it is public).
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(struct {
		Pub    []byte
		Report enclave.Report
	}{priv.PublicKey().Bytes(), report}); err != nil {
		return nil, err
	}
	c2s, s2c := deriveKeys(secret)
	sealOut, err := crypt.NewSealer(s2c, 2)
	if err != nil {
		return nil, err
	}
	sealIn, err := crypt.NewSealer(c2s, 1)
	if err != nil {
		return nil, err
	}
	return &secureConn{conn: conn, br: br, seal: sealOut, open: sealIn}, nil
}

// RemoteSubORAM is a core.SubORAMClient reached over an attested channel.
// On connection failure it redials and re-attests under exponential backoff
// within Options' retry budget; redelivered batches are answered from the
// server's Window, never re-applied. Deliver's frames carry the caller's
// tag; BatchAccess's, the handle's own stream.
type RemoteSubORAM struct {
	addr     string
	platform *enclave.Platform
	want     enclave.Measurement
	opts     Options

	mu  sync.Mutex // serializes RPCs (incl. reconnects) on the channel
	sc  *secureConn
	own store.DeliveryTag // BatchAccess's stream and its last delivery on it

	outScratch []*store.Requests // Deliver's result slice, reused under mu

	connMu    sync.Mutex // guards sc swaps against Close (which skips mu)
	closed    chan struct{}
	closeOnce sync.Once

	// Telemetry instruments, resolved once at dial; all nil (no-ops)
	// without Options.Telemetry.
	telRPC        *telemetry.Histogram
	telRetries    *telemetry.Counter
	telReconnects *telemetry.Counter
	telFailures   *telemetry.Counter
}

// Dial connects to a subORAM server with default Options, verifying that
// the peer attests to the expected measurement on the given platform.
func Dial(addr string, platform *enclave.Platform, want enclave.Measurement) (*RemoteSubORAM, error) {
	return DialOptions(addr, platform, want, Options{})
}

// DialOptions is Dial with explicit failure-handling parameters. The
// initial connection is attempted once (callers want fail-fast feedback on
// address or attestation mistakes); the retry budget applies to later
// reconnects.
func DialOptions(addr string, platform *enclave.Platform, want enclave.Measurement, opts Options) (*RemoteSubORAM, error) {
	opts = opts.withDefaults()
	var stream [8]byte
	if _, err := rand.Read(stream[:]); err != nil {
		return nil, err
	}
	r := &RemoteSubORAM{
		addr:     addr,
		platform: platform,
		want:     want,
		opts:     opts,
		own:      store.DeliveryTag{Stream: binary.LittleEndian.Uint64(stream[:])},
		closed:   make(chan struct{}),

		telRPC:        opts.Telemetry.Histogram("transport_rpc", nil),
		telRetries:    opts.Telemetry.Counter("transport_retries_total"),
		telReconnects: opts.Telemetry.Counter("transport_reconnects_total"),
		telFailures:   opts.Telemetry.Counter("transport_rpc_failures_total"),
	}
	sc, err := r.connect()
	if err != nil {
		return nil, err
	}
	r.setConn(sc)
	return r, nil
}

// connect dials and runs the attested handshake under DialTimeout.
func (r *RemoteSubORAM) connect() (*secureConn, error) {
	conn, err := r.opts.dialer("tcp", r.addr, r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(r.opts.DialTimeout))
	sc, err := clientHandshake(conn, r.platform, r.want)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return sc, nil
}

func (r *RemoteSubORAM) setConn(sc *secureConn) {
	r.connMu.Lock()
	r.sc = sc
	r.connMu.Unlock()
}

func (r *RemoteSubORAM) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// backoff sleeps the k-th retry delay (exponential, jittered, capped) or
// returns early if the handle closes. All inputs are public configuration.
func (r *RemoteSubORAM) backoff(k int) error {
	d := r.opts.retryBase << uint(k)
	if d <= 0 || d > r.opts.retryMax {
		d = r.opts.retryMax
	}
	d = time.Duration(float64(d) * (0.5 + mrand.Float64()))
	select {
	case <-time.After(d):
		return nil
	case <-r.closed:
		return ErrClosed
	}
}

// withRetry runs fn against a live connection, redialing (with the full
// attested handshake) and retrying on connection errors within the retry
// budget. timeout bounds each attempt's I/O. Application-level errors from
// the server (RemoteError) and local protocol violations are returned
// without retry.
func (r *RemoteSubORAM) withRetry(timeout time.Duration, fn func(sc *secureConn) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Counted per re-attempt: retries happen only on connection
			// failures, which the network adversary observes directly.
			r.telRetries.Inc()
		}
		if r.isClosed() {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", ErrClosed, lastErr)
			}
			return ErrClosed
		}
		sc := r.sc
		if sc == nil {
			var err error
			sc, err = r.connect()
			if err != nil {
				lastErr = err
				if attempt >= r.opts.MaxRetries {
					break
				}
				if err := r.backoff(attempt); err != nil {
					return err
				}
				continue
			}
			r.setConn(sc)
			r.telReconnects.Inc()
		}
		sc.setDeadline(timeout)
		err := fn(sc)
		sc.setDeadline(0)
		if err == nil {
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			return err
		}
		// Connection-level failure: drop the channel; the next attempt
		// redials and re-attests.
		sc.conn.Close()
		r.setConn(nil)
		lastErr = err
		if attempt >= r.opts.MaxRetries {
			break
		}
		if err := r.backoff(attempt); err != nil {
			return err
		}
	}
	r.telFailures.Inc()
	return fmt.Errorf("transport: %s: %d attempts failed: %w", r.addr, r.opts.MaxRetries+1, lastErr)
}

func clientHandshake(conn net.Conn, platform *enclave.Platform, want enclave.Measurement) (*secureConn, error) {
	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(priv.PublicKey().Bytes()); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	var hello struct {
		Pub    []byte
		Report enclave.Report
	}
	if err := gob.NewDecoder(br).Decode(&hello); err != nil {
		return nil, err
	}
	if err := platform.Verify(hello.Report, want); err != nil {
		return nil, fmt.Errorf("transport: attestation failed: %w", err)
	}
	transcript := crypt.DigestOf(append(append([]byte{}, priv.PublicKey().Bytes()...), hello.Pub...))
	if hello.Report.KeyHash != transcript {
		return nil, fmt.Errorf("transport: attestation does not bind this channel")
	}
	peer, err := curve.NewPublicKey(hello.Pub)
	if err != nil {
		return nil, err
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return nil, err
	}
	c2s, s2c := deriveKeys(secret)
	sealOut, err := crypt.NewSealer(c2s, 1)
	if err != nil {
		return nil, err
	}
	sealIn, err := crypt.NewSealer(s2c, 2)
	if err != nil {
		return nil, err
	}
	return &secureConn{conn: conn, br: br, seal: sealOut, open: sealIn}, nil
}

// Init implements core.SubORAMClient. Init is idempotent on the server (it
// replaces the partition contents and resets the delivery record), so
// retrying an ambiguous failure is safe.
func (r *RemoteSubORAM) Init(ids []uint64, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.withRetry(max(r.opts.RPCTimeout, 2*time.Minute), func(sc *secureConn) error {
		if err := sc.send(&message{Kind: "init", IDs: ids, Data: data}); err != nil {
			return err
		}
		reply, err := sc.recv()
		if err != nil {
			return err
		}
		if reply.Kind == "err" {
			return &RemoteError{Msg: reply.Error}
		}
		return nil
	})
}

// BatchAccess is a one-batch delivery on the handle's own stream. The
// returned responses are drawn from the process-wide arena; the caller owns
// them and may release them back via arena.Default.PutRequests.
func (r *RemoteSubORAM) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.own.Epoch++
	var out [1]*store.Requests
	if err := r.deliverLocked(r.own, []*store.Requests{reqs}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Deliver implements core.SubORAMClient: one epoch's batches travel as a
// single grouped frame under tag — one AEAD seal, one round trip, one open,
// however many load-balancer batches the epoch has. Application on the
// server is all-or-nothing per the Window's contract; batches are
// applied in slice order. The returned slice is valid only until the next
// Deliver call on this handle; the responses in it are arena-backed and
// owned by the caller.
func (r *RemoteSubORAM) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.outScratch) < len(reqs) {
		r.outScratch = make([]*store.Requests, len(reqs))
	}
	outs := r.outScratch[:len(reqs)]
	if err := r.deliverLocked(tag, reqs, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// deliverLocked sends reqs as one delivery under tag and fills outs with
// the responses. Retries after an ambiguous failure re-send the same tag,
// and a server that already applied the batches replays its stored
// responses instead of re-applying, preserving at-most-once application.
// Caller holds r.mu.
func (r *RemoteSubORAM) deliverLocked(tag store.DeliveryTag, reqs, outs []*store.Requests) error {
	tr0 := r.opts.Telemetry.Now()
	err := r.withRetry(r.opts.RPCTimeout, func(sc *secureConn) error {
		if err := sc.sendReqsN(tagBatchN, tag, reqs); err != nil {
			return err
		}
		reply, err := sc.recv()
		if err != nil {
			return err
		}
		switch reply.Kind {
		case "respN":
			if reply.tag != tag || len(reply.reqsN) != len(reqs) {
				putAll(reply.reqsN)
				return fmt.Errorf("transport: grouped response tag (%#x,%d,%d) does not match batch (%#x,%d,%d)",
					reply.tag.Stream, reply.tag.Epoch, len(reply.reqsN), tag.Stream, tag.Epoch, len(reqs))
			}
			copy(outs, reply.reqsN)
			return nil
		case "err":
			return &RemoteError{Msg: reply.Error}
		default:
			return fmt.Errorf("transport: unexpected reply %q", reply.Kind)
		}
	})
	if err != nil {
		return err
	}
	// End-to-end RPC latency including any retries — one observation per
	// successful epoch delivery.
	r.telRPC.Observe(time.Duration(r.opts.Telemetry.Now() - tr0))
	return nil
}

// Close tears down the connection. It never waits for an in-flight RPC:
// the underlying net.Conn is closed directly (net.Conn.Close is safe
// concurrently with reads and writes), which unblocks any reader stuck on
// a stalled peer, and in-flight or later RPCs fail with ErrClosed instead
// of retrying.
func (r *RemoteSubORAM) Close() error {
	r.closeOnce.Do(func() { close(r.closed) })
	r.connMu.Lock()
	sc := r.sc
	r.connMu.Unlock()
	if sc != nil {
		return sc.conn.Close()
	}
	return nil
}
