package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/history"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/transport"
)

// The exactly-once table: every crash site of a journaled root against
// every fate partition 0 can meet in the crash epoch C, at depths 1 and 2.
var (
	// tableSites are where the root dies in epoch C ("none": it lives).
	tableSites = []string{"none", "stage-a", "journal", "dispatch"}
	// tableFates are partition 0's fates in epoch C:
	//   - serves: nothing happens to it;
	//   - fails: its first delivery of C fails before applying anything;
	//   - twice: it receives each delivery of C twice under the same tag;
	//   - failover: the root fails it over to a fresh handle, over the same
	//     partition and delivery window, between C's journal record and its
	//     dispatch;
	//   - prefix: its first delivery of C fails after the first of its two
	//     batches reached the partition — the second, its table key cleared,
	//     is one the partition's delivery gate refuses.
	tableFates = []string{"serves", "fails", "twice", "failover", "prefix"}
)

// TestJournalExactlyOnce enumerates depth {1, 2} × crash epoch C ∈ {1, 2, 3}
// × crash site × partition-0 fate (120 rows) over S = 2 partitions and L = 2
// load balancers. Epochs 1–3 are submitted back to back; after a crash a
// successor root opens the same journal directory over fresh tagged
// handles, and clients retry only the requests they never saw answered,
// each under its own ID. Each row is judged on: exactly one successful
// answer per request; a duplicate retry to the incarnation that answered
// returns the same bytes; each partition applies every write marker
// exactly once; every delivery travels as (stream, epoch) and one tag
// always carries one batch; every key finally reads its last acknowledged
// write; and the history is linearizable.
func TestJournalExactlyOnce(t *testing.T) {
	atDepths(t, func(t *testing.T, depth int) {
		for c := uint64(1); c <= 3; c++ {
			for _, site := range tableSites {
				for _, fate := range tableFates {
					row := &tableRow{depth: depth, crash: c, site: site, fate: fate}
					t.Run(fmt.Sprintf("C=%d/%s/%s", c, site, fate), row.run)
				}
			}
		}
	})
}

// The pinned crash scenarios, each one row of the table at both depths: a
// crash after the partitions applied epoch 2, after its journal record,
// and before it; and partition 0 failed over between epoch 3's journal
// record and its dispatch, with the root dying at that dispatch.
func TestJournalCrashAfterDispatchExactlyOnce(t *testing.T)  { pinnedRow(t, 2, "dispatch", "serves") }
func TestJournalCrashBeforeDispatchReplaysOnce(t *testing.T) { pinnedRow(t, 2, "journal", "serves") }
func TestJournalCrashBeforeJournalRetriesFresh(t *testing.T) { pinnedRow(t, 2, "stage-a", "serves") }
func TestJournalFailoverBetweenJournalAndDispatch(t *testing.T) {
	pinnedRow(t, 3, "dispatch", "failover")
}

func pinnedRow(t *testing.T, crash uint64, site, fate string) {
	atDepths(t, func(t *testing.T, depth int) {
		(&tableRow{depth: depth, crash: crash, site: site, fate: fate}).run(t)
	})
}

type tableRow struct {
	depth      int
	crash      uint64 // C
	site, fate string

	dir    string
	parts  []*markerPart
	stream uint64      // the first incarnation's delivery stream
	failed atomic.Bool // fate "fails" or "prefix": the one failure was played

	mu      sync.Mutex
	batches map[[2]uint64][sha256.Size]byte // (partition, epoch) → batch digest
	tagErr  error
}

// markerPart is a partition server's store: it counts every write marker
// it applies, and win is the delivery window the server runs it behind.
type markerPart struct {
	*suboram.SubORAM
	win *transport.Window

	mu      sync.Mutex
	applied map[string]int
}

func (p *markerPart) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs, err := p.SubORAM.Deliver(tag, reqs)
	if err == nil {
		p.mu.Lock()
		for _, r := range reqs {
			for j := 0; j < r.Len(); j++ {
				if r.Op[j] == store.OpWrite && r.Key[j]&store.DummyKeyBit == 0 {
					p.applied[trimmed(r.Block(j))]++
				}
			}
		}
		p.mu.Unlock()
	}
	return outs, err
}

// fateHandle is one root incarnation's tagged client for a partition: it
// checks every delivery's tag and plays the row's fate on partition 0's
// deliveries of epoch C.
type fateHandle struct {
	*transport.Window
	row  *tableRow
	part int
}

func (h *fateHandle) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	h.row.delivered(h.part, tag, reqs)
	if h.part == 0 && tag.Epoch == h.row.crash {
		switch h.row.fate {
		case "fails":
			if h.row.failed.CompareAndSwap(false, true) {
				return nil, errInjected
			}
		case "prefix":
			if h.row.failed.CompareAndSwap(false, true) {
				unkeyed := reqs[len(reqs)-1].Clone()
				unkeyed.StampKey(crypt.SipKey{})
				return h.Window.Deliver(tag, append(reqs[:len(reqs)-1:len(reqs)-1], unkeyed))
			}
		case "twice":
			outs, err := h.Window.Deliver(tag, reqs)
			if err != nil {
				return nil, err
			}
			for _, out := range outs {
				arena.Default.PutRequests(out)
			}
		}
	}
	return h.Window.Deliver(tag, reqs)
}

// delivered checks one delivery's tag: on the root's stream, and carrying
// the same batch as every other delivery under that tag.
func (row *tableRow) delivered(part int, tag store.DeliveryTag, reqs []*store.Requests) {
	h := sha256.New()
	for _, r := range reqs {
		for j := 0; j < r.Len(); j++ {
			fmt.Fprintf(h, "%d/%d/%x;", r.Op[j], r.Key[j], r.Block(j))
		}
		h.Write([]byte{'|'})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	row.mu.Lock()
	defer row.mu.Unlock()
	switch prev, seen := row.batches[[2]uint64{uint64(part), tag.Epoch}]; {
	case tag.Stream != row.stream:
		row.tagErr = fmt.Errorf("partition %d: epoch %d travelled as (%#x, %d), want stream %#x",
			part, tag.Epoch, tag.Stream, tag.Epoch, row.stream)
	case seen && prev != sum:
		row.tagErr = fmt.Errorf("partition %d: tag (stream, %d) carried two different batches", part, tag.Epoch)
	default:
		row.batches[[2]uint64{uint64(part), tag.Epoch}] = sum
	}
}

// open starts a root incarnation over the row's journal directory and
// partitions, through fresh handles.
func (row *tableRow) open(t *testing.T) *System {
	t.Helper()
	handles := make([]SubORAMClient, len(row.parts))
	for p := range handles {
		handles[p] = row.handle(p)
	}
	sys, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: 2, Lambda: 32, Ticks: ticksFor(row.depth), JournalDir: row.dir,
		Failover: func(p int, _ SubORAMClient) (SubORAMClient, error) { return row.handle(p), nil },
	}, handles)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func (row *tableRow) handle(p int) *fateHandle {
	return &fateHandle{Window: row.parts[p].win, row: row, part: p}
}

// tracked is one client request, retried under its own ID until answered.
type tracked struct {
	req   Request
	epoch uint64 // the epoch it was first submitted in; 0 for final reads
	part  int
	op    history.Op

	wait    func() ([]byte, bool, error)
	first   error // the first attempt's error
	answers int
}

func (row *tableRow) run(t *testing.T) {
	const S, objects = 2, 64
	row.dir, row.batches = t.TempDir(), map[[2]uint64][sha256.Size]byte{}
	for p := 0; p < S; p++ {
		part := &markerPart{SubORAM: suboram.New(suboram.Config{BlockSize: testBlock}), applied: map[string]int{}}
		part.win = transport.NewWindow(part)
		row.parts = append(row.parts, part)
	}
	r1 := row.open(t)
	row.stream = r1.stream
	r1.setCrashHook(func(point string, epoch uint64) bool {
		if epoch != row.crash {
			return false
		}
		if point == "journal" && row.fate == "failover" {
			r1.repairWG.Add(1)
			r1.repair(0, r1.snapshotSubs()[0])
		}
		return point == row.site
	})
	ids := make([]uint64, objects)
	data := make([]byte, objects*testBlock)
	initial := map[uint64]string{}
	keysOn := make([][]uint64, S)
	for k := range ids {
		ids[k] = uint64(k)
		initial[ids[k]] = fmt.Sprintf("init-%d", k)
		copy(data[k*testBlock:], initial[ids[k]])
		p := r1.SubORAMFor(ids[k])
		keysOn[p] = append(keysOn[p], ids[k])
	}
	if err := r1.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	var all []*tracked
	// track adds a request on partition p's key; a write carries its own
	// marker as its value.
	track := func(epoch uint64, p int, op uint8, key uint64) *tracked {
		tr := &tracked{req: Request{Op: op, Key: key, ID: uint64(len(all) + 1)}, epoch: epoch, part: p}
		tr.op = history.Op{Key: key, Write: op == store.OpWrite}
		if tr.op.Write {
			tr.op.Input = fmt.Sprintf("w%d", tr.req.ID)
			tr.req.Value = []byte(tr.op.Input)
		}
		all = append(all, tr)
		return tr
	}
	submit := func(sys *System, round []*tracked) {
		for _, tr := range round {
			if tr.op.Start == 0 {
				tr.op.Start = now()
			}
			var err error
			if tr.wait, err = sys.Submit(tr.req); err != nil {
				tr.wait = nil
				row.failedAttempt(t, tr, err)
			}
		}
	}
	// collect resolves a round, then sends every request it answered to the
	// same incarnation again: the parked answer must come back, byte for
	// byte, and nothing may execute twice.
	collect := func(sys *System, round []*tracked) {
		var answered []*tracked
		for _, tr := range round {
			if tr.wait == nil {
				continue
			}
			v, found, err := tr.wait()
			tr.wait = nil
			if err != nil {
				row.failedAttempt(t, tr, err)
				continue
			}
			if !found {
				t.Fatalf("request %d: key %d not found", tr.req.ID, tr.req.Key)
			}
			tr.answers++
			tr.op.End, tr.op.Output = now(), trimmed(v)
			answered = append(answered, tr)
		}
		dups := make([]func() ([]byte, bool, error), len(answered))
		for i, tr := range answered {
			var err error
			if dups[i], err = sys.Submit(tr.req); err != nil {
				t.Fatalf("duplicate of answered request %d: %v", tr.req.ID, err)
			}
		}
		if len(dups) > 0 {
			step(sys)
		}
		for i, tr := range answered {
			if v, found, err := dups[i](); err != nil || !found || trimmed(v) != tr.op.Output {
				t.Fatalf("duplicate of request %d: %q, %v, %v; first answer %q", tr.req.ID, trimmed(v), found, err, tr.op.Output)
			}
		}
	}
	unanswered := func() (out []*tracked) {
		for _, tr := range all {
			if tr.answers == 0 {
				out = append(out, tr)
			}
		}
		return out
	}

	// Epoch e writes two fresh keys per partition, each with its own
	// marker, and reads two of its keys: one epoch e−1 wrote, and one this
	// epoch writes.
	for e := uint64(1); e <= 3; e++ {
		var round []*tracked
		for p := 0; p < S; p++ {
			for i := uint64(0); i < 2; i++ {
				round = append(round, track(e, p, store.OpWrite, keysOn[p][2*e-1+i]), track(e, p, store.OpRead, keysOn[p][2*e-2+i]))
			}
		}
		submit(r1, round)
		step(r1)
	}
	collect(r1, all)

	if r1.Crashed() != (row.site != "none") {
		t.Fatalf("crashed=%v at site %q", r1.Crashed(), row.site)
	}
	wantFailovers := uint64(0)
	if row.fate == "failover" && row.site != "stage-a" {
		wantFailovers = 1
	}
	if got := r1.Health().Failovers[0]; got != wantFailovers {
		t.Fatalf("partition 0 failed over %d times, want %d", got, wantFailovers)
	}
	for _, tr := range all {
		switch {
		case row.site != "none" && tr.epoch >= row.crash:
			if !errors.Is(tr.first, ErrRootDown) || tr.answers != 0 {
				t.Fatalf("request %d of epoch %d: first attempt %v, answered %d times by a root that died in epoch %d",
					tr.req.ID, tr.epoch, tr.first, tr.answers, row.crash)
			}
		case row.depth == 1 && tr.epoch < row.crash && tr.answers != 1:
			t.Fatalf("request %d of epoch %d unanswered before the crash: %v", tr.req.ID, tr.epoch, tr.first)
		}
	}

	r2 := r1
	if r1.Crashed() {
		r1.Close()
		r2 = row.open(t)
		if r2.stream != row.stream || row.stream == 0 {
			t.Fatalf("incarnations derived streams %#x and %#x", row.stream, r2.stream)
		}
		// Journaled ⇒ replayed and parked: a crash at or after C's journal
		// record leaves all of C's answers to the successor's replay.
		if row.site != "stage-a" && row.fate != "fails" && row.fate != "prefix" {
			for _, tr := range all {
				if tr.epoch != row.crash {
					continue
				}
				if _, parked := r2.replyWin.get(tr.req.ID); !parked {
					t.Fatalf("request %d of journaled epoch %d not parked by the replay", tr.req.ID, tr.epoch)
				}
			}
		}
	}
	defer r2.Close()
	for round := 0; round < 4; round++ {
		retry := unanswered()
		if len(retry) == 0 {
			break
		}
		submit(r2, retry)
		step(r2)
		collect(r2, retry)
	}
	for _, tr := range all {
		if tr.answers != 1 {
			t.Fatalf("request %d of epoch %d answered %d times (first attempt: %v)", tr.req.ID, tr.epoch, tr.answers, tr.first)
		}
	}

	// Every key finally reads its last acknowledged write.
	last := map[uint64]string{}
	for _, tr := range all {
		if tr.op.Write {
			last[tr.req.Key] = tr.op.Input
		}
	}
	var final []*tracked
	for p := 0; p < S; p++ {
		for _, k := range keysOn[p][:7] {
			final = append(final, track(0, p, store.OpRead, k))
		}
	}
	submit(r2, final)
	step(r2)
	collect(r2, final)
	for _, tr := range final {
		want, ok := last[tr.req.Key]
		if !ok {
			want = initial[tr.req.Key]
		}
		if tr.answers != 1 || tr.op.Output != want {
			t.Fatalf("final read of key %d: %q (answered %d times), want %q", tr.req.Key, tr.op.Output, tr.answers, want)
		}
	}

	r2.Close()
	if row.tagErr != nil {
		t.Fatal(row.tagErr)
	}
	writes := 0
	for _, tr := range all {
		if !tr.op.Write {
			continue
		}
		writes++
		if n := row.parts[tr.part].applied[tr.op.Input]; n != 1 {
			t.Fatalf("partition %d applied write %q (epoch %d) %d times", tr.part, tr.op.Input, tr.epoch, n)
		}
	}
	if n := len(row.parts[0].applied) + len(row.parts[1].applied); n != writes {
		t.Fatalf("partitions applied %d distinct markers, want %d", n, writes)
	}
	ops := make([]history.Op, len(all))
	for i, tr := range all {
		ops[i] = tr.op
	}
	if !history.CheckLinearizable(initial, ops) {
		t.Fatalf("history not linearizable: %+v", ops)
	}
}

// failedAttempt records an attempt's error, which must be the root's death
// or partition 0's injected failure (a refused batch, and a stale replay of
// a delivery that failed, included).
func (row *tableRow) failedAttempt(t *testing.T, tr *tracked, err error) {
	t.Helper()
	if tr.first == nil {
		tr.first = err
	}
	injected := errors.Is(err, errInjected) || errors.Is(err, ohash.ErrOrder) || errors.Is(err, transport.ErrStale)
	if !errors.Is(err, ErrRootDown) && !(tr.part == 0 && injected) {
		t.Fatalf("request %d of epoch %d: %v", tr.req.ID, tr.epoch, err)
	}
}
