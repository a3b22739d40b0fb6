package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
)

func taggedPair(t *testing.T) (*LocalTagged, *LocalTagged, *suboram.SubORAM) {
	t.Helper()
	sub := suboram.New(suboram.Config{BlockSize: testBlock})
	if err := sub.Init([]uint64{1, 2, 3}, make([]byte, 3*testBlock)); err != nil {
		t.Fatal(err)
	}
	rc := NewReplayCache()
	return NewLocalTagged(sub, rc), NewLocalTagged(sub, rc), sub
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
// must not apply it twice — the replay cache answers with the recorded
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
		// Scribble over the returned copy; the cache's private clone must
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
	// Every delivery inside the window is answered again from the cache —
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
// server's replay cache deduplicates.
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
