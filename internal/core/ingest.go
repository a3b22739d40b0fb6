// Client ingest: the one request path. A client operation enters through
// Submit, is awaited through await — the one wait, which a root crash
// resolves — and is answered at most once per idempotency ID through the
// root's reply window.
package core

import (
	"errors"
	"fmt"
	"sync"

	"snoopy/internal/store"
)

// ErrRootDown is returned for requests submitted to (or in flight on) a
// crashed root load balancer. Clients retry against the promoted standby
// with the same idempotency ID.
var ErrRootDown = errors.New("core: root load balancer down")

// Request is one client operation: the paper's access (op, key, value)
// (§4.3), the Appendix-D ACL principal, and the idempotency ID the root
// journal routes replies by.
type Request struct {
	// Op is store.OpRead or store.OpWrite.
	Op  uint8
	Key uint64
	// Value is a write's new value, at most BlockSize bytes (zero-padded).
	Value []byte
	// User is the ACL principal; 0 runs as user 0.
	User uint64
	// ID is the client-chosen idempotency ID (0 = untracked,
	// at-least-once), journaled with the epoch. A retry with the same
	// non-zero ID — against this root or a successor promoted over the same
	// journal directory — returns the original answer instead of
	// re-executing.
	ID uint64
}

// result is what a waiting client receives.
type result struct {
	value []byte
	found bool
	err   error
}

// pending is a queued request and its reply channel.
type pending struct {
	Request
	ch chan result
}

// Submit validates r and enqueues it, or — when its ID was already
// answered — takes the parked answer from the reply window instead. The
// returned function blocks for the answer through await: a read's value,
// or a write's value at the start of its epoch (the paper's
// OStoreBatchAccess semantics: every deduplicated request for a key shares
// one response — not an atomic read-modify-write), with found reporting
// whether the key exists (and, with ACL enabled, the op was permitted).
// Writes to keys not loaded at Init are no-ops with found == false.
func (sys *System) Submit(r Request) (func() ([]byte, bool, error), error) {
	if r.Op != store.OpRead && r.Op != store.OpWrite {
		return nil, fmt.Errorf("core: invalid op %d", r.Op)
	}
	if r.Key >= store.DummyKeyBit {
		return nil, fmt.Errorf("core: key %#x in reserved dummy space", r.Key)
	}
	if len(r.Value) > sys.cfg.BlockSize {
		return nil, fmt.Errorf("core: value length %d exceeds block size %d", len(r.Value), sys.cfg.BlockSize)
	}
	ch := make(chan result, 1)
	if parked, ok := sys.replyWin.get(r.ID); ok {
		ch <- parked
	} else if err := sys.enqueue(pending{Request: r, ch: ch}); err != nil {
		return nil, err
	}
	return func() ([]byte, bool, error) { return sys.await(ch) }, nil
}

// enqueue queues p with the next load balancer in round-robin order, or
// refuses once the root has crashed or closed. The paper's clients pick a
// load balancer at random because they do not coordinate (§4.3); here one
// root assigns every request, so it spreads them evenly instead. Either way
// the choice is public — the network adversary sees which load balancer
// each request reaches — and round robin makes each load balancer's
// request count a function of the request count alone.
func (sys *System) enqueue(p pending) error {
	if sys.Crashed() {
		// A crashed root refuses, distinguishably from a clean shutdown
		// (which a crash implies): the client's move is to retry against
		// the promoted successor.
		return ErrRootDown
	}
	select {
	case <-sys.closed:
		return ErrClosed
	default:
	}
	st := sys.lbs[(sys.nextLB.Add(1)-1)%uint64(len(sys.lbs))]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	st.queue = append(st.queue, p)
	return nil
}

// await is every request's wait: the answer, or ErrRootDown once the root
// has crashed without answering — a dead root answers nothing, so no other
// reply would ever come. An answer issued (or parked) before the crash wins:
// the reply channel is buffered, so it is never lost.
func (sys *System) await(ch chan result) ([]byte, bool, error) {
	var r result
	select {
	case r = <-ch:
	case <-sys.crashedCh:
		select {
		case r = <-ch:
		default:
			r.err = ErrRootDown
		}
	}
	return r.value, r.found, r.err
}

// replyWindow parks successful results of idempotent requests under their
// client-chosen IDs, bounded FIFO: it needs to cover the client retry
// horizon, not the session.
type replyWindow struct {
	mu   sync.Mutex
	seen map[uint64]result
	ring []uint64
	next int
}

// replyWindowSize is how many answered IDs the window remembers: the client
// retry horizon, public configuration.
const replyWindowSize = 4096

func newReplyWindow(n int) *replyWindow {
	return &replyWindow{seen: make(map[uint64]result, n), ring: make([]uint64, n)}
}

// put parks a successful result under id. Errors are not parked: a failed
// request was not answered, and the client's retry should re-execute it.
func (w *replyWindow) put(id uint64, r result) {
	if id == 0 || r.err != nil {
		return
	}
	// The caller may hand the same value slice to the live client; park a
	// private copy so a later retry cannot observe client mutations.
	r.value = append([]byte(nil), r.value...)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.seen[id]; dup {
		return
	}
	if old := w.ring[w.next]; old != 0 {
		delete(w.seen, old)
	}
	w.ring[w.next] = id
	w.next = (w.next + 1) % len(w.ring)
	w.seen[id] = r
}

func (w *replyWindow) get(id uint64) (result, bool) {
	if id == 0 {
		return result{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.seen[id]
	if ok {
		// Hand out a copy: the caller owns its answer, and a later retry
		// must not observe the first retry's mutations.
		r.value = append([]byte(nil), r.value...)
	}
	return r, ok
}
