package core

import (
	"fmt"

	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Access control (paper Appendix D): the access-control matrix is stored
// in a *second, recursive Snoopy instance* keyed by (user, object,
// operation). Each epoch then runs in two phases: the load balancers first
// obliviously look up the ACL entries for the pending requests, then apply
// the permission bits — branch-free, so execution never reveals which
// requests were permitted — and run the ordinary epoch. Denied reads
// return null values; denied writes are converted into reads (no state
// change) and also return null.

// ACLRule grants user the given operation (store.OpRead or store.OpWrite)
// on object.
type ACLRule struct {
	User   uint64
	Object uint64
	Op     uint8
}

type aclState struct {
	sys    *System
	hasher *crypt.Hasher
}

// aclKey maps an (user, object, op) triple into the ACL store's key space
// with a keyed hash, exactly as §D's access-control matrix lookup.
func (a *aclState) key(user, object uint64, op uint8) uint64 {
	h := a.hasher.Sum64(user)
	h ^= a.hasher.Sum64(object ^ 0x9e3779b97f4a7c15)
	h ^= a.hasher.Sum64(uint64(op) | 1<<62)
	return h &^ store.DummyKeyBit
}

// EnableACL installs an access-control matrix, served by an internal
// recursive Snoopy deployment with aclSubORAMs partitions. Must be called
// before requests are submitted. Requests without a User run as user 0.
func (sys *System) EnableACL(rules []ACLRule, aclSubORAMs int) error {
	if aclSubORAMs <= 0 {
		aclSubORAMs = 1
	}
	const aclBlock = 8 // a permission record: one byte used
	subs := make([]SubORAMClient, aclSubORAMs)
	for i := range subs {
		subs[i] = suboram.New(suboram.Config{BlockSize: aclBlock})
	}
	// Manual epochs: the outer Flush drives the recursive instance.
	aclSys, err := NewWithSubORAMs(Config{BlockSize: aclBlock, Lambda: sys.cfg.Lambda}, subs)
	if err != nil {
		return err
	}
	a := &aclState{sys: aclSys, hasher: crypt.NewHasher(crypt.MustNewKey())}

	ids := make([]uint64, 0, len(rules))
	seen := make(map[uint64]bool, len(rules))
	for _, r := range rules {
		if r.Op != store.OpRead && r.Op != store.OpWrite {
			return fmt.Errorf("core: ACL rule with invalid op %d", r.Op)
		}
		k := a.key(r.User, r.Object, r.Op)
		if seen[k] {
			continue
		}
		seen[k] = true
		ids = append(ids, k)
	}
	data := make([]byte, len(ids)*aclBlock)
	for i := range ids {
		data[i*aclBlock] = 1 // granted
	}
	if err := aclSys.Init(ids, data); err != nil {
		return err
	}

	sys.epochMu.Lock()
	defer sys.epochMu.Unlock()
	sys.acl = a
	return nil
}

// applyACL performs the recursive permission lookups for one epoch's
// pending queues and rewrites the requests branch-free: denied writes
// become reads, and every denied request is flagged so its response is
// nulled after matching. Returns per-queue denial flags.
//
// A resolution that fails fails closed: every request of the epoch is
// denied before batching — all writes become reads — and stage C fails
// them with the error, so no write of an unchecked user reaches a
// partition.
func (sys *System) applyACL(queues [][]pending) (denied [][]uint8, err error) {
	a := sys.acl
	denied = make([][]uint8, len(queues))
	if a == nil {
		return denied, nil
	}
	defer func() {
		if err != nil {
			for _, q := range queues {
				for i := range q {
					q[i].Op = store.OpRead
				}
			}
		}
	}()
	// Phase 1: submit all ACL lookups, run one recursive epoch.
	type lookup struct {
		q, i int
		wait func() ([]byte, bool, error)
	}
	var lookups []lookup
	for qi, q := range queues {
		denied[qi] = make([]uint8, len(q))
		for i, p := range q {
			wait, err := a.sys.Submit(Request{Op: store.OpRead, Key: a.key(p.User, p.Key, p.Op)})
			if err != nil {
				return nil, err
			}
			lookups = append(lookups, lookup{q: qi, i: i, wait: wait})
		}
	}
	a.sys.Flush()
	// Phase 2: apply permissions branch-free.
	for _, l := range lookups {
		value, found, err := l.wait()
		if err != nil {
			return nil, err
		}
		var granted uint8
		if found && len(value) > 0 {
			granted = value[0] & 1
		}
		p := &queues[l.q][l.i]
		deny := obliv.Not(granted)
		denied[l.q][l.i] = deny
		// A denied write must not mutate state: flip its op to read. The
		// flip is a conditional set on a secret bit, not a branch on the
		// access path.
		op := uint64(p.Op)
		obliv.CondSetU64(deny, &op, uint64(store.OpRead))
		p.Op = uint8(op)
	}
	return denied, nil
}

// nullDenied zeroes the responses of denied requests (branch-free).
func nullDenied(val []byte, found *uint8, deny uint8) {
	zero := make([]byte, len(val))
	obliv.CondCopyBytes(deny, val, zero)
	obliv.CondSetU8(deny, found, 0)
}

// CloseACL tears down the recursive instance (called from Close).
func (sys *System) closeACL() {
	if sys.acl != nil {
		sys.acl.sys.Close()
	}
}
