package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/wirecode"
)

// taggedPair is one Window over an initialised partition, handed to two
// root incarnations, as a partition server outlives the root that crashed.
func taggedPair(t *testing.T) (*Window, *Window, *suboram.SubORAM) {
	t.Helper()
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	if err := sub.Init([]uint64{1, 2, 3}, make([]byte, 3*testBlock)); err != nil {
		t.Fatal(err)
	}
	w := NewWindow(sub)
	return w, w, sub
}

// streamID and epoch0 tag a test's first delivery, as a root tags epoch E
// of its stream; a successor handle re-issues that delivery under the same
// tag.
const streamID, epoch0 = 0x5eed, 42

func tagAt(epoch uint64) store.DeliveryTag { return store.DeliveryTag{Stream: streamID, Epoch: epoch} }

// deliverOne hands c a one-batch delivery under tag.
func deliverOne(c interface {
	Deliver(store.DeliveryTag, []*store.Requests) ([]*store.Requests, error)
}, tag store.DeliveryTag, reqs *store.Requests) (*store.Requests, error) {
	outs, err := c.Deliver(tag, []*store.Requests{reqs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

func oneWrite(key uint64, val string) *store.Requests {
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpWrite, key, 0, 0, 0, []byte(val))
	return sendable(reqs)
}

func oneRead(key uint64) *store.Requests {
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 0, 0, nil)
	return sendable(reqs)
}

// TestLocalTaggedReplayAcrossIncarnations is the standby-root scenario in
// miniature: incarnation 1 applies a tagged write and crashes; incarnation
// 2 re-issues the delivery under the same tag. The partition
// must not apply it twice — the window answers with the recorded
// response, even though incarnation 2's payload differs.
func TestLocalTaggedReplayAcrossIncarnations(t *testing.T) {
	h1, h2, _ := taggedPair(t)

	if _, err := deliverOne(h1, tagAt(epoch0), oneWrite(2, "first")); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 replays the delivery under the tag incarnation 1
	// already used.
	out, err := deliverOne(h2, tagAt(epoch0), oneWrite(2, "SECOND"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("replayed response has %d rows", out.Len())
	}

	// The partition kept the first application.
	got, err := deliverOne(h2, tagAt(epoch0+1), oneRead(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Block(0), []byte("first")) {
		t.Fatalf("partition re-applied a replayed delivery: %q", got.Block(0))
	}
}

func TestLocalTaggedGroupedReplay(t *testing.T) {
	h1, h2, _ := taggedPair(t)

	outs, err := h1.Deliver(tagAt(epoch0), []*store.Requests{oneWrite(1, "alpha"), oneWrite(3, "gamma")})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d grouped responses", len(outs))
	}

	replayed, err := h2.Deliver(tagAt(epoch0), []*store.Requests{oneWrite(1, "EVIL"), oneWrite(3, "EVIL")})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replay returned %d responses", len(replayed))
	}

	got, err := deliverOne(h2, tagAt(epoch0+1), oneRead(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Block(0), []byte("alpha")) {
		t.Fatalf("grouped replay re-applied: %q", got.Block(0))
	}
}

// TestLocalTaggedReplayTwice checks the replay path hands out independent
// arena-backed copies: releasing one replayed response must not corrupt a
// later replay of the same entry.
func TestLocalTaggedReplayTwice(t *testing.T) {
	h1, h2, _ := taggedPair(t)
	if _, err := deliverOne(h1, tagAt(epoch0), oneWrite(2, "stable")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out, err := deliverOne(h2, tagAt(epoch0), oneWrite(2, "x"))
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		// Scribble over the returned copy; the window's private copy must
		// be unaffected.
		for j := range out.Data {
			out.Data[j] = 0xee
		}
	}
}

func TestLocalTaggedStaleDeliveryRejected(t *testing.T) {
	h1, h2, _ := taggedPair(t)
	for i := 0; i <= replayWindow; i++ {
		if _, err := deliverOne(h1, tagAt(uint64(i+1)), oneWrite(2, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A delivery older than the replay window can no longer be answered
	// exactly-once; it must be rejected, not applied.
	if _, err := deliverOne(h2, tagAt(1), oneWrite(2, "stale")); err == nil {
		t.Fatal("stale delivery accepted")
	}
	// Every delivery inside the window is answered again from it —
	// what a successor root replaying several epochs in flight relies on.
	out, err := deliverOne(h2, tagAt(2), oneWrite(2, "replayed"))
	if err != nil {
		t.Fatalf("delivery inside the replay window: %v", err)
	}
	if got := string(bytes.TrimRight(out.Block(0), "\x00")); got != "v0" {
		t.Fatalf("replayed delivery 2 answered previous value %q, want %q", got, "v0")
	}
}

// TestRemoteDeliveryTagAdoption runs the same standby scenario over the
// real attested wire: both handles deliver under the same tag and the
// server's Window deduplicates.
func TestRemoteDeliveryTagAdoption(t *testing.T) {
	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	addr := startServer(t, platform, m)

	r1, err := Dial(addr, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if err := r1.Init([]uint64{1, 2, 3}, make([]byte, 3*testBlock)); err != nil {
		t.Fatal(err)
	}
	if _, err := deliverOne(r1, tagAt(epoch0), oneWrite(2, "orig")); err != nil {
		t.Fatal(err)
	}

	r2, err := Dial(addr, platform, m)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := deliverOne(r2, tagAt(epoch0), oneWrite(2, "DUPL")); err != nil {
		t.Fatal(err)
	}
	got, err := deliverOne(r2, tagAt(epoch0+1), oneRead(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Block(0), []byte("orig")) {
		t.Fatalf("server re-applied replayed delivery: %q", got.Block(0))
	}
}

// TestReplayWindowCoversEpochsInFlight pins the replay window to the epoch
// engine's in-flight bound, read from the depth gauge each engine exports:
// a successor root replays every epoch its predecessor had in flight, so the
// window must answer at least that many deliveries again.
func TestReplayWindowCoversEpochsInFlight(t *testing.T) {
	for _, ticks := range []<-chan time.Time{nil, make(chan time.Time)} {
		reg := telemetry.NewRegistry()
		sys, err := core.NewWithSubORAMs(core.Config{BlockSize: testBlock, Ticks: ticks, Telemetry: reg},
			[]core.SubORAMClient{suboram.New(suboram.Config{BlockSize: testBlock})})
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
		depth := reg.Gauge("snoopy_config_pipeline_depth").Value()
		if depth < 1 || depth > replayWindow {
			t.Fatalf("ticked=%v: %d epochs in flight, replay window %d", ticks != nil, depth, replayWindow)
		}
	}
}

// stillPartition answers every delivery with the same preallocated
// responses: a partition that allocates nothing.
type stillPartition struct{ outs []*store.Requests }

func (p *stillPartition) Init([]uint64, []byte) error { return nil }

func (p *stillPartition) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	return p.outs[:len(reqs)], nil
}

// TestWindowDeliverZeroAlloc pins the Window's part of the zero-allocation
// data plane: once both of a stream's response slots have grown to the
// delivery's shape, a fresh delivery records its responses by copying them
// in place, and Deliver allocates nothing.
func TestWindowDeliverZeroAlloc(t *testing.T) {
	reqs := groupOf(2)
	w := NewWindow(&stillPartition{outs: groupOf(2)})
	tag := tagAt(1)
	for ; tag.Epoch <= replayWindow; tag.Epoch++ { // fill every slot once
		if _, err := w.Deliver(tag, reqs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.Deliver(tag, reqs); err != nil {
			t.Fatal(err)
		}
		tag.Epoch++
	})
	if allocs != 0 {
		t.Fatalf("a fresh delivery through a warmed Window allocates %v times, want 0", allocs)
	}
}

// partition is what the parity script drives: a Window in process, or a
// RemoteSubORAM reaching one through ServeSubORAM.
type partition interface {
	Init(ids []uint64, data []byte) error
	Deliver(store.DeliveryTag, []*store.Requests) ([]*store.Requests, error)
}

// windowScript runs one script of deliveries against p and returns its
// transcript: each step's responses in wire encoding, or its refusal.
func windowScript(t *testing.T, p partition) []string {
	t.Helper()
	a := func(e uint64) store.DeliveryTag { return store.DeliveryTag{Stream: 0xa, Epoch: e} }
	b := func(e uint64) store.DeliveryTag { return store.DeliveryTag{Stream: 0xb, Epoch: e} }
	unkeyed := oneWrite(3, "lost")
	unkeyed.StampKey(crypt.SipKey{})
	steps := []struct {
		tag   store.DeliveryTag
		reqs  []*store.Requests
		reset bool // Init the partition before this step
	}{
		{tag: a(1), reqs: []*store.Requests{oneWrite(2, "fresh"), oneRead(1)}}, // 0: fresh
		{tag: a(1), reqs: []*store.Requests{oneWrite(2, "EVIL"), oneRead(1)}},  // 1: redelivery inside the window
		{tag: a(2), reqs: []*store.Requests{oneRead(2)}},                       // 2: fresh
		{tag: a(3), reqs: []*store.Requests{oneRead(3)}},                       // 3: fresh
		{tag: a(1), reqs: []*store.Requests{oneWrite(2, "stale"), oneRead(1)}}, // 4: stale tag
		{tag: a(3), reqs: []*store.Requests{oneRead(3), oneRead(1)}},           // 5: misshapen redelivery
		{tag: a(4), reqs: []*store.Requests{unkeyed}},                          // 6: the partition fails it
		{tag: a(4), reqs: []*store.Requests{oneWrite(3, "retried")}},           // 7: its retry applies
		{tag: b(1), reqs: []*store.Requests{oneRead(3)}},                       // 8: a second stream
		{tag: b(1), reqs: []*store.Requests{oneWrite(3, "EVIL")}},              // 9: its redelivery
		{tag: a(4), reqs: []*store.Requests{oneRead(3)}},                       // 10: replay on the first
		{tag: a(4), reqs: []*store.Requests{oneRead(3)}, reset: true},          // 11: Init forgets it
	}
	initial := func(val string) []byte {
		data := make([]byte, 3*testBlock)
		for i := 0; i < 3; i++ {
			copy(data[i*testBlock:], fmt.Sprintf("%s-%d", val, i+1))
		}
		return data
	}
	if err := p.Init([]uint64{1, 2, 3}, initial("init")); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, st := range steps {
		if st.reset {
			if err := p.Init([]uint64{1, 2, 3}, initial("reset")); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := p.Deliver(st.tag, st.reqs)
		if err != nil {
			out = append(out, "refused: "+err.Error())
			continue
		}
		var enc []byte
		for _, r := range resp {
			enc = wirecode.AppendRequests(enc, r)
		}
		out = append(out, hex.EncodeToString(enc))
	}
	return out
}

// TestWindowParityInProcessAndServed runs one script through a Window in
// process and through ServeSubORAM over TCP: a fresh delivery, a
// redelivery inside the window, a stale tag, a misshapen redelivery, a
// failed delivery and its retry, a second stream, and an Init reset. Both
// give the same response bytes and the same refusals.
func TestWindowParityInProcessAndServed(t *testing.T) {
	local := windowScript(t, NewWindow(suboram.New(suboram.Config{BlockSize: testBlock})))

	platform := enclave.NewPlatform()
	m := enclave.Measure("snoopy-suboram")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeSubORAM(l, suboram.New(suboram.Config{BlockSize: testBlock}), platform, m, nil)
	r, err := DialOptions(l.Addr().String(), platform, m, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	served := windowScript(t, r)

	if len(local) != len(served) {
		t.Fatalf("in process %d steps, served %d", len(local), len(served))
	}
	for i := range local {
		if local[i] != served[i] {
			t.Errorf("step %d: in process %q, served %q", i, local[i], served[i])
		}
	}
	// The script exercises what it names.
	refused := func(i int) bool { return strings.HasPrefix(local[i], "refused: ") }
	for i, want := range []bool{false, false, false, false, true, true, true, false, false, false, false, false} {
		if refused(i) != want {
			t.Errorf("step %d refused=%v, want %v: %s", i, refused(i), want, local[i])
		}
	}
	stale := "refused: " + ErrStale.Error()
	for _, i := range []int{4, 5} {
		if !strings.HasPrefix(local[i], stale) {
			t.Errorf("step %d: %s, want a stale refusal", i, local[i])
		}
	}
	if strings.HasPrefix(local[6], stale) {
		t.Errorf("the partition's refusal reads as stale: %s", local[6])
	}
	for _, pair := range [][2]int{{0, 1}, {8, 9}} {
		if local[pair[0]] != local[pair[1]] {
			t.Errorf("redelivery %d not answered as delivery %d", pair[1], pair[0])
		}
	}
	if local[10] == local[11] {
		t.Error("Init did not clear the delivery record")
	}
	var re *RemoteError
	if _, err := r.Deliver(store.DeliveryTag{Stream: 0xa, Epoch: 1}, []*store.Requests{oneRead(1)}); !errors.As(err, &re) {
		t.Errorf("served stale refusal %v is not a RemoteError", err)
	}
}
