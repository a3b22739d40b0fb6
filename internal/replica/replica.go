// Package replica implements the fault-tolerance and rollback-protection
// extension the paper sketches in §9: each logical subORAM is replicated
// to f+r+1 members, where f bounds members that crash or stall and r bounds
// members an attacker can roll back to stale (but validly sealed) state. A
// trusted monotonic counter (the ROTE / SGX-counter abstraction, advanced
// once per epoch as §9 prescribes) numbers the batches. Each member's
// enclave seals the epoch its state reflects together with the state, so a
// reply whose epoch is not its batch's counter value comes from a stale
// lineage and is discarded.
//
// The group is a quorum, not a clock. Every member gets every batch, in
// counter order, through a queue of its own: a slow member is behind, never
// skipped. BatchAccess returns once n − f members have answered and one
// answer is fresh; every fresh answer, however late, is checked against the
// one served. A member is stale because of its lineage — an error, a reply
// epoch that is not its batch's, or a backlog dropped past backlogCap —
// never because it is slow. It is re-admitted by a restore queued in its
// own order, which waits for an export queued in an idle current member's
// order; the transfer is one whole partition image, whose size is a public
// function of partition size. No member is called under the group's lock,
// so a member that blocks holds up only its own queue and the restores
// waiting on its export.
//
// Group implements core.SubORAMClient, so a replicated partition drops
// into the system wherever a plain subORAM does.
package replica

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// Client is one group member: a subORAM whose enclave seals, together with
// its state, the epoch that state reflects. An applied batch advances Epoch
// by one, Export returns the state image with its epoch, Restore loads such
// an image, and a host that rolls the sealed state back rolls Epoch back
// with it. The group calls one method of a member at a time.
type Client interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
	Export() (ids []uint64, data []byte, epoch uint64, err error)
	Restore(ids []uint64, data []byte, epoch uint64) error
	Epoch() uint64
}

// Partition is the plain subORAM a Node runs (*suboram.SubORAM).
type Partition interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
	Export() (ids []uint64, data []byte, err error)
	Restore(ids []uint64, data []byte) error
}

// Node is a member enclave in process: a partition and the epoch its state
// reflects, which Init resets, each applied batch advances and Restore sets.
type Node struct {
	mu    sync.Mutex
	p     Partition
	epoch uint64
}

// NewNode wraps a partition as a group member.
func NewNode(p Partition) *Node { return &Node{p: p} }

// Init loads the partition at epoch 0.
func (n *Node) Init(ids []uint64, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = 0
	return n.p.Init(ids, data)
}

// BatchAccess applies one batch; only an applied batch advances the epoch.
func (n *Node) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out, err := n.p.BatchAccess(reqs)
	if err == nil {
		n.epoch++
	}
	return out, err
}

// Export copies the partition's state image and the epoch it reflects.
func (n *Node) Export() (ids []uint64, data []byte, epoch uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids, data, err = n.p.Export()
	return ids, data, n.epoch, err
}

// Restore loads an image sealed at epoch.
func (n *Node) Restore(ids []uint64, data []byte, epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.p.Restore(ids, data); err != nil {
		return err
	}
	n.epoch = epoch
	return nil
}

// Epoch reports the epoch the node's state reflects.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// ErrNoQuorum is returned when every member resolved a batch without a
// fresh reply.
var ErrNoQuorum = errors.New("replica: no fresh replica reply available")

// ErrDivergence is returned when fresh replicas disagree — state
// corruption that replication cannot mask.
var ErrDivergence = errors.New("replica: fresh replicas disagree")

// backlogCap bounds the batches a member may have queued: past it, one
// whole-partition restore is cheaper than replaying the backlog, and the
// member stops pinning that many batch clones in memory. Overflow drops the
// backlog and makes the member stale. The value is a memory bound, not
// derived from anything else.
const backlogCap = 16

// Counter is the trusted monotonic counter abstraction of §9 (ROTE or the
// SGX counter service). Increment is called once per epoch.
type Counter interface {
	Increment() uint64
	Current() uint64
}

// TrustedCounter is an in-enclave counter simulation.
type TrustedCounter struct{ v atomic.Uint64 }

// Increment advances and returns the counter.
func (c *TrustedCounter) Increment() uint64 { return c.v.Add(1) }

// Current returns the counter without advancing it.
func (c *TrustedCounter) Current() uint64 { return c.v.Load() }

// GroupStats counts the group's failure-handling events. The counters are
// cumulative since the group was created.
type GroupStats struct {
	// StaleReplies counts replies discarded because their sealed epoch was
	// not their batch's counter value.
	StaleReplies uint64
	// Resyncs counts members re-admitted by restoring a current member's
	// export; ResyncBytes and ResyncEpochs total the image bytes moved and
	// the epochs of lag repaired.
	Resyncs      uint64
	ResyncBytes  uint64
	ResyncEpochs uint64
	// Fresh is the number of members that are not stale (in the counter's
	// lineage, possibly behind); Members sizes the group.
	Fresh, Members int
}

// Group is a replicated logical subORAM.
type Group struct {
	counter Counter
	f       int

	// mu orders jobs into the members' queues and guards member state and
	// stats; idle is signalled on it when a member settles.
	mu      sync.Mutex
	idle    sync.Cond
	members []*member
	stats   GroupStats
	// diverged: two fresh replies to one batch differed. No reply can be
	// trusted after that, so every later batch fails with ErrDivergence.
	diverged atomic.Bool

	// Telemetry counters mirroring GroupStats, bumped at the same sites;
	// all nil (no-ops) until SetTelemetry.
	telStale       *telemetry.Counter
	telResyncs     *telemetry.Counter
	telResyncBytes *telemetry.Counter
}

// member is one Client and the jobs it works through in counter order, on
// a goroutine that runs only while the queue is not empty.
type member struct {
	c       Client
	queue   []job
	running bool
	// stale: the member's lineage left the counter's; only a restore clears
	// it, and until then each of its batches is answered, not fresh, when
	// queued. down: its last call failed, so no restore is sent until it
	// answers again. restoring: the image of its queued restore.
	stale, down bool
	restoring   *image
}

// image is a donor's export at epoch. The donor fills it and closes done;
// ok reports that the export succeeded at that epoch.
type image struct {
	epoch uint64
	done  chan struct{}
	ok    bool
	ids   []uint64
	data  []byte
}

// job is one batch at its counter epoch, answered on b (nil once answered),
// or an export or restore of an image.
type job struct {
	epoch           uint64
	reqs            *store.Requests
	b               *batch
	export, restore *image
}

// batch is one BatchAccess's reply channel and the digest of its first fresh
// reply — the one served — which every later fresh reply is checked against.
type batch struct {
	replies chan reply
	digest  [sha256.Size]byte
	fresh   bool
}

// reply is one member's answer: out is set when it is fresh, err when the
// member failed to answer.
type reply struct {
	out *store.Requests
	err error
}

// SetTelemetry mirrors the group's failure-handling counters (stale
// replies, resyncs and bytes transferred) into a telemetry registry. Every
// event already appears in GroupStats; this adds no new observation, only
// an export path.
func (g *Group) SetTelemetry(reg *telemetry.Registry) {
	g.mu.Lock()
	g.telStale = reg.Counter("replica_stale_replies_total")
	g.telResyncs = reg.Counter("replica_resyncs_total")
	g.telResyncBytes = reg.Counter("replica_resync_bytes_total")
	g.mu.Unlock()
}

// NewGroup builds a group tolerating f crashed or stalled members and r
// rolled-back ones; it requires exactly f+r+1 members (paper §9).
func NewGroup(members []Client, counter Counter, f, r int) (*Group, error) {
	if f < 0 || r < 0 {
		return nil, fmt.Errorf("replica: negative fault bounds")
	}
	if len(members) != f+r+1 {
		return nil, fmt.Errorf("replica: need f+r+1 = %d replicas, have %d", f+r+1, len(members))
	}
	if counter == nil {
		counter = &TrustedCounter{}
	}
	g := &Group{counter: counter, f: f}
	g.idle.L = &g.mu
	for _, c := range members {
		g.members = append(g.members, &member{c: c})
	}
	return g, nil
}

// Init loads every member. Call it before the first batch.
func (g *Group) Init(ids []uint64, data []byte) error {
	errs := make([]error, len(g.members))
	for i, m := range g.members {
		errs[i] = m.c.Init(ids, data)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		m.stale = errs[i] != nil
	}
	return errors.Join(errs...)
}

// Stats returns the group's failure-handling counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.Members = len(g.members)
	for _, m := range g.members {
		if !m.stale {
			st.Fresh++
		}
	}
	return st
}

// WaitIdle blocks until member i has no job queued or running, so every
// batch issued so far has been answered and counted. A member blocked in a
// call, or restoring from a donor that is, never goes idle: wait only on
// members that can answer.
func (g *Group) WaitIdle(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.members[i].running {
		g.idle.Wait()
	}
}

// BatchAccess queues the batch to every member at the next counter epoch
// and returns the first fresh reply once n − f members have answered and
// one answer is fresh. A stale member answers, not fresh, as the batch is
// queued, so only current members are waited on. It returns ErrNoQuorum
// only when every member resolved the batch without a fresh reply. Every
// fresh reply, including those arriving after the return, is checked
// against the one served: a difference the quorum saw fails this batch,
// and one seen later fails every later batch, with ErrDivergence.
func (g *Group) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	if g.diverged.Load() {
		return nil, ErrDivergence
	}
	// Each member reads its own copy: the caller may reuse reqs' storage as
	// soon as this returns, while members behind the quorum still need it.
	clones := make([]*store.Requests, len(g.members))
	for i := range clones {
		clones[i] = reqs.Clone()
	}
	b := &batch{replies: make(chan reply, len(g.members))}
	g.mu.Lock()
	epoch := g.counter.Increment()
	// Drop overflowing backlogs before placing restores, so no restore
	// placed at this boundary is dropped by it.
	for _, m := range g.members {
		if len(m.queue) >= backlogCap {
			g.dropLocked(m)
		}
	}
	g.readmitLocked(epoch - 1)
	for i, m := range g.members {
		g.pushLocked(m, job{epoch: epoch, reqs: clones[i], b: b})
	}
	g.mu.Unlock()

	var out *store.Requests
	answered := 0
	for range g.members {
		r := <-b.replies
		if r.err == nil {
			answered++
		}
		if out == nil {
			out = r.out
		}
		if answered >= len(g.members)-g.f && out != nil {
			break
		}
	}
	switch {
	case g.diverged.Load():
		return nil, ErrDivergence
	case out == nil:
		return nil, ErrNoQuorum
	}
	return out, nil
}

// staleLocked marks m stale and answers its queued batches, not fresh.
func (g *Group) staleLocked(m *member) {
	m.stale = true
	for i := range m.queue {
		m.queue[i].answerStale()
	}
}

func (j *job) answerStale() {
	if j.b != nil {
		j.b.replies <- reply{}
		j.b = nil
	}
}

// readmitLocked queues, for every stale member that is up and restoring
// nothing, a restore in its own queue, and an export of the image at epoch
// in an idle current member's queue: having answered fresh every batch
// through epoch, that member is at it. Without one the members wait for a
// later boundary.
func (g *Group) readmitLocked(epoch uint64) {
	var donor *member
	for _, d := range g.members {
		if !d.running && !d.stale {
			donor = d
			break
		}
	}
	if donor == nil {
		return
	}
	var img *image
	for _, m := range g.members {
		if m.stale && !m.down && m.restoring == nil {
			if img == nil {
				img = &image{epoch: epoch, done: make(chan struct{})}
			}
			m.restoring = img
			g.pushLocked(m, job{restore: img})
		}
	}
	if img != nil {
		g.pushLocked(donor, job{export: img})
	}
}

// dropLocked discards m's backlog and makes it stale. A dropped export
// fails, so no restore waits on it.
func (g *Group) dropLocked(m *member) {
	g.staleLocked(m)
	for _, j := range m.queue {
		if j.export != nil {
			close(j.export.done)
		}
	}
	m.queue, m.restoring = nil, nil
}

func (g *Group) pushLocked(m *member, j job) {
	if m.stale {
		j.answerStale()
	}
	m.queue = append(m.queue, j)
	if !m.running {
		m.running = true
		go g.drain(m)
	}
}

// drain works through m's queue in order and exits once it is empty. A
// member call that never returns holds this goroutine, and a restore waits
// here for its donor's export: neither holds up another member's queue.
func (g *Group) drain(m *member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		g.mu.Unlock()
		switch {
		case j.export != nil:
			// An image not at its epoch means the donor was rolled back since
			// its last reply: the restore fails, and a later boundary retries.
			img := j.export
			var epoch uint64
			var err error
			img.ids, img.data, epoch, err = m.c.Export()
			img.ok = err == nil && epoch == img.epoch
			close(img.done)
			g.mu.Lock()
		case j.restore != nil:
			img := j.restore
			<-img.done
			var before uint64
			var err error
			if img.ok {
				before = m.c.Epoch()
				err = m.c.Restore(img.ids, img.data, img.epoch)
			}
			g.mu.Lock()
			g.restoredLocked(m, img, before, err)
		default:
			out, err := m.c.BatchAccess(j.reqs)
			fresh := err == nil && m.c.Epoch() == j.epoch
			var digest [sha256.Size]byte
			if fresh && j.b != nil && len(g.members) > 1 {
				digest = digestResponses(out)
			}
			g.mu.Lock()
			g.answeredLocked(m, j, out, fresh, digest, err)
		}
	}
	m.running = false
	g.idle.Broadcast()
}

// answeredLocked settles one batch a member ran. Its reply is fresh when
// the member applied the batch at the batch's counter epoch; an error or
// any other epoch makes the member stale. The first fresh reply to a batch
// is the one served, and a later one that differs marks the group diverged.
func (g *Group) answeredLocked(m *member, j job, out *store.Requests, fresh bool, digest [sha256.Size]byte, err error) {
	m.down = err != nil
	if !fresh && !m.stale {
		if err == nil {
			g.stats.StaleReplies++
			g.telStale.Inc()
		}
		g.staleLocked(m)
	}
	if j.b == nil {
		return
	}
	r := reply{err: err}
	if fresh {
		r.out = out
		if !j.b.fresh {
			j.b.digest, j.b.fresh = digest, true
		} else if digest != j.b.digest {
			g.diverged.Store(true)
		}
	}
	j.b.replies <- r
}

// restoredLocked re-admits m unless its backlog was dropped since the
// restore was queued. A failed restore marks it down until it answers.
func (g *Group) restoredLocked(m *member, img *image, before uint64, err error) {
	if m.restoring != img {
		return
	}
	m.restoring, m.down = nil, err != nil
	if !img.ok || err != nil {
		return
	}
	m.stale = false
	g.stats.Resyncs++
	g.stats.ResyncBytes += uint64(len(img.data))
	g.stats.ResyncEpochs += img.epoch - before
	g.telResyncs.Inc()
	g.telResyncBytes.Add(uint64(len(img.data)))
}

// digestResponses hashes the response contents (key → value/found
// mapping). Row order is not semantically meaningful, so per-row digests
// are sorted before the final fold — unlike an XOR fold, this is
// duplicate-sensitive: response sets differing by a duplicated row pair
// hash differently.
func digestResponses(out *store.Requests) [sha256.Size]byte {
	rows := make([][sha256.Size]byte, out.Len())
	for i := 0; i < out.Len(); i++ {
		h := sha256.New()
		var kb [9]byte
		binary.LittleEndian.PutUint64(kb[:8], out.Key[i])
		kb[8] = out.Aux[i]
		h.Write(kb[:])
		h.Write(out.Block(i))
		h.Sum(rows[i][:0])
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i][:], rows[j][:]) < 0 })
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(rows)))
	h.Write(n[:])
	for i := range rows {
		h.Write(rows[i][:])
	}
	var acc [sha256.Size]byte
	h.Sum(acc[:0])
	return acc
}
