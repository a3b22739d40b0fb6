package transport

import (
	"fmt"
	"slices"
	"sync"

	"snoopy/internal/arena"
	"snoopy/internal/store"
)

// maxStreams bounds a Window: one delivery record per stream, evicting the
// least recently delivered stream beyond the cap.
const maxStreams = 64

// replayWindow is how many of a stream's latest deliveries a Window can
// answer again. A root with up to that many epochs in flight (core runs at
// most two, with its ticker) may crash after the partitions applied all of
// them; its successor replays each one.
const replayWindow = 2

// Window is a partition behind the at-most-once delivery rule the
// linearizability argument (paper §C) needs once retries exist: it
// remembers, per delivery stream, the highest epoch applied and the
// responses of the last replayWindow deliveries, and answers a redelivery
// of one of those tags with the recorded responses instead of applying the
// batches twice. The partition server serves every partition through one
// (ServeSubORAM), so a lost response retried over a fresh connection, or a
// standby root replaying its predecessor's open epochs, is answered from
// it. A Window is itself a partition: tests drive the same object the
// server runs, and two root incarnations that share one deduplicate
// against each other.
//
// The Window serializes Init and Deliver on its partition — the paper's
// fixed batch order requires that anyway — and holds its lock across the
// partition call, so "look up, apply, record" is atomic.
type Window struct {
	p Partition

	mu      sync.Mutex
	streams map[uint64]*stream
	tick    uint64            // logical clock for LRU eviction
	outs    []*store.Requests // Deliver's result slice, reused under mu
}

// stream is one delivery stream's record.
type stream struct {
	last uint64 // the highest epoch applied
	used uint64
	// slots[q%replayWindow] holds applied epoch q's responses for q in
	// (last−replayWindow, last].
	slots [replayWindow]slot
}

// slot holds one applied delivery's responses as private copies, not
// arena-backed; a later delivery overwrites them in place.
type slot struct {
	epoch uint64
	full  bool
	resp  []*store.Requests
}

// NewWindow wraps p with an empty delivery record.
func NewWindow(p Partition) *Window {
	return &Window{p: p, streams: make(map[uint64]*stream)}
}

// Init initialises the partition and clears the delivery record: a
// re-initialized partition starts a fresh history.
func (w *Window) Init(ids []uint64, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.p.Init(ids, data); err != nil {
		return err
	}
	clear(w.streams)
	return nil
}

// Deliver resolves one tagged delivery:
//
//   - an epoch above the last one applied on its stream → the partition
//     applies the batches in one call, and the responses are recorded;
//   - an epoch applied within the window → a redelivery after an ambiguous
//     failure or by a successor root: the recorded responses come back
//     without touching the partition (a redelivery with a different batch
//     count cannot be answered exactly-once and is refused with ErrStale);
//   - any older epoch → it can no longer be answered exactly-once, and is
//     refused with ErrStale.
//
// A delivery the partition fails is not recorded, so it is never replayed
// as a success; the partition applied none of it, so a retry under the
// same tag applies it afresh. The returned slice is valid until the next
// Deliver; every response in it belongs to the caller, who releases it, and
// a replayed one is an arena copy of the recorded responses.
func (w *Window) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	outs, _, err := w.applyLocked(tag, reqs, w.outs[:0])
	if err != nil {
		return nil, err
	}
	w.outs = outs
	return outs, nil
}

// apply is Deliver for the serve loop: it appends the responses to dst, a
// slice the caller owns, and reports whether they were a replay.
func (w *Window) apply(tag store.DeliveryTag, reqs, dst []*store.Requests) ([]*store.Requests, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked(tag, reqs, dst)
}

func (w *Window) applyLocked(tag store.DeliveryTag, reqs, dst []*store.Requests) ([]*store.Requests, bool, error) {
	w.tick++
	s := w.streams[tag.Stream]
	if s != nil {
		s.used = w.tick
		if tag.Epoch <= s.last {
			sl := &s.slots[tag.Epoch%replayWindow]
			if !sl.full || sl.epoch != tag.Epoch {
				return nil, false, fmt.Errorf("%w: tag (%#x, %d) is behind the window (last applied %d)",
					ErrStale, tag.Stream, tag.Epoch, s.last)
			}
			if len(sl.resp) != len(reqs) {
				return nil, false, fmt.Errorf("%w: tag (%#x, %d) redelivered with a different shape",
					ErrStale, tag.Stream, tag.Epoch)
			}
			for _, r := range sl.resp {
				c := arena.Default.GetRequests(r.Len(), r.BlockSize)
				c.CopyRowsPlain(0, r)
				dst = append(dst, c)
			}
			return dst, true, nil
		}
	}
	applied, err := w.p.Deliver(tag, reqs)
	if err != nil {
		return nil, false, err
	}
	if s == nil {
		s = &stream{used: w.tick}
		w.streams[tag.Stream] = s
		w.evictLocked()
	}
	s.last = tag.Epoch
	s.slots[tag.Epoch%replayWindow].keep(tag.Epoch, applied)
	return append(dst, applied...), false, nil
}

// keep records epoch's responses in the slot, copying them into the
// slot's own storage, which grows once to the deployment's shape.
func (sl *slot) keep(epoch uint64, resp []*store.Requests) {
	sl.epoch, sl.full = epoch, true
	sl.resp = slices.Grow(sl.resp[:0], len(resp))[:len(resp)]
	for i, r := range resp {
		c := sl.resp[i]
		if c == nil || c.BlockSize != r.BlockSize || c.Cap() < r.Len() {
			c = store.NewRequests(r.Len(), r.BlockSize)
			sl.resp[i] = c
		}
		c.Resize(r.Len())
		c.CopyRowsPlain(0, r)
	}
}

func (w *Window) evictLocked() {
	for len(w.streams) > maxStreams {
		var victim uint64
		oldest := ^uint64(0)
		for id, s := range w.streams {
			if s.used < oldest {
				oldest, victim = s.used, id
			}
		}
		delete(w.streams, victim)
	}
}
