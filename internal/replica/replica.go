// Package replica implements the fault-tolerance and rollback-protection
// extension the paper sketches in §9: each logical subORAM is replicated
// to f+r+1 nodes, where f bounds crash failures and r bounds replicas an
// attacker can roll back to stale (but validly sealed) state. A trusted
// monotonic counter (the ROTE / SGX-counter abstraction, invoked once per
// epoch exactly as §9 prescribes) identifies the current epoch; every
// replica's reply carries the epoch its state reflects, so stale replies
// from rolled-back replicas are detected and discarded. Surviving replies
// are cross-checked for agreement before one is returned.
//
// Beyond masking faults, a Group closes the failure loop: a stale or
// recovered member is resynchronized from a fresh peer (Resync, or
// automatically via SetAutoHeal) — the transfer is a whole sealed
// partition whose size is a public function of partition size, so rejoin
// leaks nothing beyond what Theorem 3 already makes public — and a member
// that stays unreachable is replaced by a registered standby (AddSpare /
// Promote). A resynced or promoted member is re-admitted only once its
// reply epoch matches the trusted counter again.
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
	"time"

	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// Client is the subORAM interface being replicated (kept structural to
// avoid an import cycle with core).
type Client interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
}

// exporter is the optional whole-partition state read used as the donor
// side of resynchronization. *suboram.SubORAM and *persist.Durable both
// implement it.
type exporter interface {
	Export() (ids []uint64, data []byte, err error)
}

// restorer is the optional fast-path state import used as the receiving
// side of resynchronization; clients without it fall back to Init.
type restorer interface {
	Restore(ids []uint64, data []byte) error
}

// ErrNoQuorum is returned when no replica produced a fresh, valid reply.
var ErrNoQuorum = errors.New("replica: no fresh replica reply available")

// ErrDivergence is returned when fresh replicas disagree — state
// corruption that replication cannot mask.
var ErrDivergence = errors.New("replica: fresh replicas disagree")

// ErrNoDonor is returned by Resync when no fresh, idle replica exists to
// export state from.
var ErrNoDonor = errors.New("replica: no fresh donor replica for resync")

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

// Replica wraps one replicated node: the node's enclave binds each reply
// to the epoch its sealed state reflects.
type Replica struct {
	mu     sync.Mutex
	client Client
	epoch  uint64
	downed bool

	// initState allows the test hooks to simulate rollback (restoring
	// stale-but-valid sealed state).
	initIDs  []uint64
	initData []byte
}

// NewReplica wraps a node.
func NewReplica(c Client) *Replica { return &Replica{client: c} }

// Fail marks the replica crashed (test / chaos hook).
func (r *Replica) Fail() {
	r.mu.Lock()
	r.downed = true
	r.mu.Unlock()
}

// Recover brings a crashed replica back — with whatever state it has,
// which may be stale; the epoch check handles that (and Resync repairs it).
func (r *Replica) Recover() {
	r.mu.Lock()
	r.downed = false
	r.mu.Unlock()
}

// Rollback simulates the §9 attack: the host restarts the enclave from an
// old sealed snapshot. State and the sealed epoch both revert.
func (r *Replica) Rollback() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.client.Init(r.initIDs, r.initData); err != nil {
		return err
	}
	r.epoch = 0
	return nil
}

// Epoch returns the epoch the replica's state reflects (test / chaos hook).
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// GroupStats counts the group's failure-handling events. All counters are
// cumulative since the group was created.
type GroupStats struct {
	// StaleReplies counts replies discarded because their sealed epoch
	// lagged the trusted counter (rolled-back or catch-up members).
	StaleReplies uint64
	// BusySkips counts batches that skipped a member because a previous
	// (abandoned) call was still running on it.
	BusySkips uint64
	// Resyncs counts members re-admitted by sealed state transfer;
	// ResyncBytes and ResyncEpochs total the transferred partition bytes
	// and the epochs of lag repaired.
	Resyncs      uint64
	ResyncBytes  uint64
	ResyncEpochs uint64
	// Promotions counts standby replicas promoted into the group.
	Promotions uint64
	// Fresh is the number of members whose reply matched the trusted
	// counter in the most recent batch; Members and Spares size the group.
	Fresh   int
	Members int
	Spares  int
}

// Group is a replicated logical subORAM.
type Group struct {
	counter Counter
	f, r    int
	timeout time.Duration

	// gmu guards membership, the miss ledger, the init snapshot, and stats.
	gmu       sync.Mutex
	replicas  []*Replica
	spares    []*Replica
	misses    []int // consecutive batches each member missed
	healAfter int   // 0 disables auto-heal
	initIDs   []uint64
	initData  []byte
	stats     GroupStats

	// Telemetry counters mirroring GroupStats, bumped at the same sites;
	// all nil (no-ops) until SetTelemetry.
	telStale       *telemetry.Counter
	telBusy        *telemetry.Counter
	telResyncs     *telemetry.Counter
	telResyncBytes *telemetry.Counter
	telPromotions  *telemetry.Counter
}

// SetTelemetry mirrors the group's failure-handling counters (stale
// replies, busy skips, resyncs and bytes transferred, promotions) into a
// telemetry registry. Every event already appears in GroupStats; this adds
// no new observation, only an export path.
func (g *Group) SetTelemetry(reg *telemetry.Registry) {
	g.gmu.Lock()
	g.telStale = reg.Counter("replica_stale_replies_total")
	g.telBusy = reg.Counter("replica_busy_skips_total")
	g.telResyncs = reg.Counter("replica_resyncs_total")
	g.telResyncBytes = reg.Counter("replica_resync_bytes_total")
	g.telPromotions = reg.Counter("replica_promotions_total")
	g.gmu.Unlock()
}

// SetTimeout bounds each replica's per-batch reply time; a replica that
// misses the deadline is counted as failed for that batch, so one stalled
// replica cannot stall the whole quorum. The abandoned call keeps running
// on its own; until it finishes, later batches skip that member (busy)
// instead of queueing behind it, and once it finishes the member rejoins
// — stale, until Resync or auto-heal catches it up. Zero (the default)
// waits forever. The timeout is public deployment configuration, like
// every other timing parameter in the system.
func (g *Group) SetTimeout(d time.Duration) { g.timeout = d }

// SetAutoHeal enables self-healing: after a member misses that many
// consecutive batches (crashed, stalled, rolled back, or lagging), the
// group repairs it at the next epoch boundary — resynchronizing it from a
// fresh peer when the member is reachable, or promoting a registered spare
// in its place when it is not. The threshold is public deployment
// configuration. Zero disables (the default).
func (g *Group) SetAutoHeal(afterMisses int) {
	g.gmu.Lock()
	g.healAfter = afterMisses
	g.gmu.Unlock()
}

// AddSpare registers a standby node. Spares hold no state until promoted;
// promotion loads them from a fresh member's sealed state.
func (g *Group) AddSpare(rep *Replica) {
	g.gmu.Lock()
	g.spares = append(g.spares, rep)
	g.stats.Spares = len(g.spares)
	g.gmu.Unlock()
}

// NewGroup builds a group tolerating f crashes and r rollbacks; it
// requires exactly f+r+1 replicas (paper §9).
func NewGroup(replicas []*Replica, counter Counter, f, r int) (*Group, error) {
	if f < 0 || r < 0 {
		return nil, fmt.Errorf("replica: negative fault bounds")
	}
	if len(replicas) != f+r+1 {
		return nil, fmt.Errorf("replica: need f+r+1 = %d replicas, have %d", f+r+1, len(replicas))
	}
	if counter == nil {
		counter = &TrustedCounter{}
	}
	g := &Group{replicas: replicas, counter: counter, f: f, r: r}
	g.misses = make([]int, len(replicas))
	g.stats.Members = len(replicas)
	return g, nil
}

// Init loads all replicas and records the snapshot rollbacks revert to.
func (g *Group) Init(ids []uint64, data []byte) error {
	g.gmu.Lock()
	g.initIDs = append([]uint64(nil), ids...)
	g.initData = append([]byte(nil), data...)
	reps := append([]*Replica(nil), g.replicas...)
	g.gmu.Unlock()
	var errs []error
	for _, rep := range reps {
		rep.mu.Lock()
		rep.initIDs = append([]uint64(nil), ids...)
		rep.initData = append([]byte(nil), data...)
		rep.epoch = 0
		err := rep.client.Init(ids, data)
		rep.mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats returns the group's cumulative failure-handling counters.
func (g *Group) Stats() GroupStats {
	g.gmu.Lock()
	defer g.gmu.Unlock()
	return g.stats
}

// BatchAccess executes the batch on every live replica, advances the
// trusted counter, discards stale or crashed replies, verifies the
// remainder agree, and returns one of them. With auto-heal enabled,
// persistently missing members are repaired afterwards, at the epoch
// boundary.
func (g *Group) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	epoch := g.counter.Increment()
	g.gmu.Lock()
	reps := append([]*Replica(nil), g.replicas...)
	g.gmu.Unlock()

	type reply struct {
		out   *store.Requests
		epoch uint64
		err   error
		busy  bool
	}
	replies := make([]reply, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		i, rep := i, rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Clone the batch before anything can be abandoned: the caller
			// may release reqs' storage (arena reuse) as soon as BatchAccess
			// returns, and an abandoned call outlives that return — it must
			// never touch the shared batch after the deadline.
			cl := reqs.Clone()
			// The replica's work runs in its own goroutine so a stalled
			// replica (deadlocked enclave, dead host behind a live TCP
			// session) can be abandoned at the deadline; the abandoned call
			// finishes — or not — on its own, and its reply is discarded.
			// TryLock keeps later batches from queueing behind an abandoned
			// call: a busy member is skipped for this batch, not blocked on.
			done := make(chan reply, 1)
			go func() {
				if !rep.mu.TryLock() {
					done <- reply{err: fmt.Errorf("replica %d busy with an abandoned batch", i), busy: true}
					return
				}
				// The member unlocks before its reply is handed back: one
				// whose call completed must read as idle to the next batch's
				// TryLock and to heal's donor search as soon as BatchAccess
				// returns.
				done <- func() reply {
					defer rep.mu.Unlock()
					if rep.downed {
						return reply{err: fmt.Errorf("replica %d down", i)}
					}
					out, err := rep.client.BatchAccess(cl)
					if err != nil {
						return reply{err: err}
					}
					rep.epoch++
					return reply{out: out, epoch: rep.epoch}
				}()
			}()
			if g.timeout <= 0 {
				replies[i] = <-done
				return
			}
			timer := time.NewTimer(g.timeout)
			defer timer.Stop()
			select {
			case rp := <-done:
				replies[i] = rp
			case <-timer.C:
				replies[i] = reply{err: fmt.Errorf("replica %d: no reply within %v", i, g.timeout)}
			}
		}()
	}
	wg.Wait()

	// Keep only replies whose sealed epoch matches the trusted counter, and
	// settle the per-member miss ledger that drives auto-heal.
	var fresh []*store.Requests
	g.gmu.Lock()
	for i, rp := range replies {
		miss := true
		switch {
		case rp.err == nil && rp.epoch == epoch:
			miss = false
			fresh = append(fresh, rp.out)
		case rp.err == nil:
			g.stats.StaleReplies++
			g.telStale.Inc()
		case rp.busy:
			g.stats.BusySkips++
			g.telBusy.Inc()
		}
		// Membership may have changed since the snapshot (concurrent
		// promotion); only account members still in place.
		if i < len(g.replicas) && g.replicas[i] == reps[i] {
			if miss {
				g.misses[i]++
			} else {
				g.misses[i] = 0
			}
		}
	}
	g.stats.Fresh = len(fresh)
	heal := g.healAfter > 0 && len(fresh) > 0
	g.gmu.Unlock()

	if heal {
		g.heal()
	}
	if len(fresh) == 0 {
		return nil, ErrNoQuorum
	}
	want := digestResponses(fresh[0])
	for _, out := range fresh[1:] {
		if digestResponses(out) != want {
			return nil, ErrDivergence
		}
	}
	return fresh[0], nil
}

// Resync copies a fresh member's whole sealed state into every reachable
// stale member, re-admitting it at the current trusted-counter epoch. The
// transfer is one full partition image — its size is a public function of
// partition size, so a rejoin leaks nothing beyond what Theorem 3 already
// makes public. Members that are down or busy are left for a later pass
// (or for spare promotion). It returns how many members were resynced and
// the bytes transferred.
func (g *Group) Resync() (synced int, bytes int, err error) {
	g.gmu.Lock()
	reps := append([]*Replica(nil), g.replicas...)
	g.gmu.Unlock()
	ids, data, donor, err := g.exportFresh(reps)
	if err != nil {
		return 0, 0, err
	}
	for i, rep := range reps {
		if rep == donor {
			continue
		}
		if n, ok := g.resyncMember(rep, ids, data); ok {
			synced++
			bytes += n
			g.gmu.Lock()
			if i < len(g.misses) && g.replicas[i] == rep {
				g.misses[i] = 0
			}
			g.gmu.Unlock()
		}
	}
	return synced, bytes, nil
}

// exportFresh locates a fresh, idle member and exports its state.
func (g *Group) exportFresh(reps []*Replica) (ids []uint64, data []byte, donor *Replica, err error) {
	cur := g.counter.Current()
	for _, rep := range reps {
		if !rep.mu.TryLock() {
			continue
		}
		if rep.downed || rep.epoch != cur {
			rep.mu.Unlock()
			continue
		}
		exp, ok := rep.client.(exporter)
		if !ok {
			rep.mu.Unlock()
			return nil, nil, nil, fmt.Errorf("replica: donor does not support state export")
		}
		ids, data, err = exp.Export()
		rep.mu.Unlock()
		if err != nil {
			return nil, nil, nil, err
		}
		return ids, data, rep, nil
	}
	return nil, nil, nil, ErrNoDonor
}

// resyncMember loads donor state into rep if it is reachable and stale,
// re-admitting it at the current epoch. Reports whether a transfer ran and
// how many bytes it moved.
func (g *Group) resyncMember(rep *Replica, ids []uint64, data []byte) (int, bool) {
	cur := g.counter.Current()
	if !rep.mu.TryLock() {
		return 0, false
	}
	defer rep.mu.Unlock()
	if rep.downed || rep.epoch == cur {
		return 0, false
	}
	if err := restoreClient(rep.client, ids, data); err != nil {
		return 0, false
	}
	lag := cur - rep.epoch
	rep.epoch = cur
	g.gmu.Lock()
	g.stats.Resyncs++
	g.stats.ResyncBytes += uint64(len(data))
	g.stats.ResyncEpochs += lag
	g.telResyncs.Inc()
	g.telResyncBytes.Add(uint64(len(data)))
	g.gmu.Unlock()
	return len(data), true
}

// Promote replaces member i with a registered spare, loading the spare
// from a fresh member's sealed state first so it joins at the current
// epoch. The replaced member is discarded (it may still be wedged in an
// abandoned call; nothing waits for it).
func (g *Group) Promote(i int) error {
	g.gmu.Lock()
	if i < 0 || i >= len(g.replicas) {
		g.gmu.Unlock()
		return fmt.Errorf("replica: promote index %d out of range", i)
	}
	if len(g.spares) == 0 {
		g.gmu.Unlock()
		return fmt.Errorf("replica: no spare to promote")
	}
	reps := append([]*Replica(nil), g.replicas...)
	g.gmu.Unlock()

	ids, data, _, err := g.exportFresh(reps)
	if err != nil {
		return err
	}
	g.gmu.Lock()
	if len(g.spares) == 0 {
		g.gmu.Unlock()
		return fmt.Errorf("replica: no spare to promote")
	}
	spare := g.spares[0]
	g.spares = g.spares[1:]
	initIDs := append([]uint64(nil), g.initIDs...)
	initData := append([]byte(nil), g.initData...)
	g.gmu.Unlock()

	spare.mu.Lock()
	err = restoreClient(spare.client, ids, data)
	if err == nil {
		spare.epoch = g.counter.Current()
		spare.downed = false
		spare.initIDs = initIDs
		spare.initData = initData
	}
	spare.mu.Unlock()
	if err != nil {
		// Put the unused spare back.
		g.gmu.Lock()
		g.spares = append([]*Replica{spare}, g.spares...)
		g.stats.Spares = len(g.spares)
		g.gmu.Unlock()
		return err
	}

	g.gmu.Lock()
	g.replicas[i] = spare
	g.misses[i] = 0
	g.stats.Promotions++
	g.telPromotions.Inc()
	g.stats.Spares = len(g.spares)
	g.gmu.Unlock()
	return nil
}

// heal repairs members whose miss run reached the auto-heal threshold:
// reachable stale members are resynced from a fresh peer; unreachable ones
// are replaced by a spare when one is registered.
func (g *Group) heal() {
	g.gmu.Lock()
	threshold := g.healAfter
	reps := append([]*Replica(nil), g.replicas...)
	victims := make([]int, 0, len(reps))
	for i, m := range g.misses {
		if threshold > 0 && m >= threshold {
			victims = append(victims, i)
		}
	}
	hasSpare := len(g.spares) > 0
	g.gmu.Unlock()
	if len(victims) == 0 {
		return
	}
	ids, data, donor, err := g.exportFresh(reps)
	if err != nil {
		return // no fresh donor this epoch; try again next epoch
	}
	for _, i := range victims {
		rep := reps[i]
		if rep == donor {
			continue
		}
		if _, ok := g.resyncMember(rep, ids, data); ok {
			g.gmu.Lock()
			if i < len(g.misses) && g.replicas[i] == rep {
				g.misses[i] = 0
			}
			g.gmu.Unlock()
			continue
		}
		// Unreachable (down or wedged): promote a standby in its place.
		if hasSpare {
			if err := g.Promote(i); err == nil {
				g.gmu.Lock()
				hasSpare = len(g.spares) > 0
				g.gmu.Unlock()
			}
		}
	}
}

// restoreClient imports a state image via the fast Restore path when the
// client supports it, falling back to a full Init.
func restoreClient(c Client, ids []uint64, data []byte) error {
	if r, ok := c.(restorer); ok {
		return r.Restore(ids, data)
	}
	return c.Init(ids, data)
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
