package transport

import (
	"crypto/rand"
	"encoding/binary"
	"sync"

	"snoopy/internal/arena"
	"snoopy/internal/store"
)

// AdoptDeliveryTag overrides the handle's delivery-stream identity and
// sequence number: the next BatchAccessN travels as (lbID, seq+1). A
// journaled root stamps (stream, epoch) this way before every dispatch, so
// a successor re-issuing an epoch sends exactly the delivery the dead root
// issued, and the partition answers from its replay cache if it already
// applied it.
func (r *RemoteSubORAM) AdoptDeliveryTag(lbID, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lbID = lbID
	r.seq = seq
}

func randomLBID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("transport: no entropy for lbID: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// LocalTagged wraps an in-process Partition with the same tagged
// at-most-once delivery semantics a remote partition server provides: every
// batch travels with an (lbID, seq) tag resolved against a ReplayCache, so
// two root incarnations driving the same partition (the crashed root's
// journaled dispatch and the standby's replay) cannot double-apply an
// epoch. The cache is shared across incarnations — it models the partition
// server's state, which survives the root's crash.
type LocalTagged struct {
	sub Partition
	rc  *ReplayCache

	mu   sync.Mutex
	lbID uint64
	seq  uint64
}

// NewLocalTagged wraps sub with tagged delivery through rc. Handles that
// should deduplicate against each other must share rc.
func NewLocalTagged(sub Partition, rc *ReplayCache) *LocalTagged {
	return &LocalTagged{sub: sub, rc: rc, lbID: randomLBID()}
}

// AdoptDeliveryTag implements the root's delivery stamp (see
// RemoteSubORAM.AdoptDeliveryTag).
func (l *LocalTagged) AdoptDeliveryTag(lbID, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lbID = lbID
	l.seq = seq
}

// Init implements core.SubORAMClient; it resets the partition and clears
// the replay cache, exactly as the remote server does.
func (l *LocalTagged) Init(ids []uint64, data []byte) error {
	return l.rc.init(l.sub, ids, data)
}

// BatchAccess implements core.SubORAMClient: a one-batch BatchAccessN.
func (l *LocalTagged) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	outs, err := l.BatchAccessN([]*store.Requests{reqs})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// BatchAccessN implements core.BatchedSubORAMClient with tagged delivery
// (all-or-nothing): a replay of an already-applied sequence returns the
// recorded responses without touching the partition.
func (l *LocalTagged) BatchAccessN(reqs []*store.Requests) ([]*store.Requests, error) {
	l.mu.Lock()
	l.seq++
	m := message{lbID: l.lbID, seq: l.seq, reqsN: reqs}
	l.mu.Unlock()
	outs, replayed, err := l.rc.applyN(l.sub, &m)
	if err != nil {
		return nil, err
	}
	if replayed {
		// The cache's stored responses are its private clones; hand the
		// caller arena-backed copies so the usual release path stays valid.
		copied := make([]*store.Requests, len(outs))
		for i, out := range outs {
			copied[i] = arenaCopy(out)
		}
		outs = copied
	}
	return outs, nil
}

func arenaCopy(src *store.Requests) *store.Requests {
	dst := arena.Default.GetRequests(src.Len(), src.BlockSize)
	dst.CopyRowsPlain(0, src)
	return dst
}
