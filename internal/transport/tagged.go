package transport

import (
	"snoopy/internal/arena"
	"snoopy/internal/store"
)

// LocalTagged wraps an in-process Partition with the same tagged
// at-most-once delivery semantics a remote partition server provides: every
// delivery's tag is resolved against a ReplayCache, so two root incarnations
// driving the same partition (the crashed root's journaled dispatch and the
// standby's replay) cannot double-apply an epoch. The cache is shared across
// incarnations — it models the partition server's state, which survives the
// root's crash.
type LocalTagged struct {
	sub Partition
	rc  *ReplayCache
}

// NewLocalTagged wraps sub with tagged delivery through rc. Handles that
// should deduplicate against each other must share rc.
func NewLocalTagged(sub Partition, rc *ReplayCache) *LocalTagged {
	return &LocalTagged{sub: sub, rc: rc}
}

// Init implements core.SubORAMClient; it resets the partition and clears
// the replay cache, exactly as the remote server does.
func (l *LocalTagged) Init(ids []uint64, data []byte) error {
	return l.rc.init(l.sub, ids, data)
}

// Deliver implements core.SubORAMClient with tagged delivery
// (all-or-nothing): a replay of an already-applied tag returns the recorded
// responses without touching the partition.
func (l *LocalTagged) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs, replayed, err := l.rc.applyN(l.sub, &message{lbID: tag.Stream, seq: tag.Epoch, reqsN: reqs})
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
