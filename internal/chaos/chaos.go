// Package chaos is a deterministic, seeded fault-injection harness for the
// full self-healing stack: a core.System over replicated partitions
// (replica.Group with auto-heal and spares) is driven through a seeded
// schedule of kill / stall / rollback / restart events while client
// operations run, and the recorded history is checked for linearizability
// (internal/history). The harness also checks the convergence invariant:
// within K epochs of the last fault, every partition reports healthy again.
//
// The schedule is a pure function of Config.Seed: which member fails, how,
// and at which epoch boundary depends only on the seeded generator and the
// harness's own bookkeeping — never on wall-clock timing — so a failing
// seed replays exactly. (Reply timing and therefore per-epoch miss counts
// do vary run to run; the invariants checked are timing-independent.)
//
// Socket-level fault injection (severed attested channels, stalled frames)
// is exercised separately by internal/faultnet with the transport and core
// failover tests; this harness drives the replica-layer hooks, where the §9
// failure model (crashes and sealed-state rollbacks) lives.
package chaos

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/history"
	"snoopy/internal/replica"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
)

// Config parameterizes one chaos run. The zero value gets defaults; Seed
// alone distinguishes runs.
type Config struct {
	// Parts is the number of logical partitions, each a replica.Group.
	Parts int
	// F and R are each group's fault bounds: the schedule keeps at most F
	// concurrent crash-type faults (kill, stall) and R concurrent
	// rollbacks per group, matching the f+r+1 sizing of §9.
	F, R int
	// Spares is the number of standby replicas registered per group.
	Spares int
	// Keys is the object count; BlockSize the value size.
	Keys, BlockSize int
	// Epochs is the fault phase length; OpsPerEpoch the client load.
	Epochs, OpsPerEpoch int
	// K is the convergence budget: after the recovery actions that follow
	// the fault phase, every partition must be healthy within K epochs.
	K int
	// HealAfter is the groups' auto-heal threshold (consecutive misses).
	HealAfter int
	// Timeout is the groups' per-member reply deadline.
	Timeout time.Duration
	// Seed drives the event schedule and the workload.
	Seed int64
	// Log, when non-nil, narrates events (e.g. t.Logf).
	Log func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Parts <= 0 {
		c.Parts = 2
	}
	if c.F <= 0 {
		c.F = 1
	}
	if c.R <= 0 {
		c.R = 1
	}
	if c.Spares < 0 {
		c.Spares = 0
	} else if c.Spares == 0 {
		c.Spares = 1
	}
	if c.Keys <= 0 {
		c.Keys = 16
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 24
	}
	if c.OpsPerEpoch <= 0 {
		c.OpsPerEpoch = 6
	}
	if c.K <= 0 {
		c.K = 6
	}
	if c.HealAfter <= 0 {
		c.HealAfter = 2
	}
	if c.Timeout <= 0 {
		// Generous enough that a healthy member never misses it (a
		// miss-everything epoch can leave every member stale with no fresh
		// donor — a real outage beyond the f+r bound, which no group
		// recovers from); small enough that the one full-deadline wait each
		// stall event costs stays cheap. The race detector slows batches by
		// an order of magnitude, so its deadline scales accordingly.
		c.Timeout = 500 * time.Millisecond
		if raceEnabled {
			c.Timeout = 2 * time.Second
		}
	}
}

// Event is one scheduled fault or recovery action.
type Event struct {
	Epoch        int
	Kind         string // "kill" | "restart" | "stall" | "unstall" | "rollback"
	Part, Member int
}

// Result summarizes one run.
type Result struct {
	// Ops and FailedOps count completed client operations and those that
	// returned errors (expected during outages; each still got a reply).
	Ops, FailedOps int
	// Events is the full schedule that ran, in order.
	Events []Event
	// Linearizable is the history.CheckLinearizable verdict.
	Linearizable bool
	// ConvergedAfter is how many post-recovery epochs it took for every
	// partition to report healthy, or -1 if the K budget ran out.
	ConvergedAfter int
	// GroupStats are the per-partition replication counters at the end
	// (stale replies, busy skips, resyncs/bytes/epochs, promotions).
	GroupStats []replica.GroupStats
	// Health is core's final per-partition health snapshot.
	Health core.HealthStats
	// Telemetry is the final snapshot of the run's telemetry registry
	// (wired through core and every replica group). It mirrors the events
	// GroupStats and Health count, so they must agree exactly — the
	// harness's tests assert it for every seed.
	Telemetry telemetry.Snapshot
}

// node is a chaos-controllable partition replica: a real subORAM whose
// BatchAccess can be stalled indefinitely (wedged enclave, dead host behind
// a live session) and released later. Export/Restore pass through so the
// node works as a resync donor and receiver.
type node struct {
	inner *suboram.SubORAM

	mu   sync.Mutex
	gate chan struct{}
}

func newNode(blockSize int) *node {
	return &node{inner: suboram.New(suboram.Config{BlockSize: blockSize})}
}

func (n *node) stall() {
	n.mu.Lock()
	if n.gate == nil {
		n.gate = make(chan struct{})
	}
	n.mu.Unlock()
}

func (n *node) unstall() {
	n.mu.Lock()
	if n.gate != nil {
		close(n.gate)
		n.gate = nil
	}
	n.mu.Unlock()
}

func (n *node) Init(ids []uint64, data []byte) error { return n.inner.Init(ids, data) }

func (n *node) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	n.mu.Lock()
	gate := n.gate
	n.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return n.inner.BatchAccess(reqs)
}

func (n *node) Export() (ids []uint64, data []byte, err error) { return n.inner.Export() }

func (n *node) Restore(ids []uint64, data []byte) error { return n.inner.Restore(ids, data) }

// member tracks the harness's deterministic view of one original group
// member. (Auto-heal may promote a spare in a member's place; events aimed
// at a replaced member are harmless no-ops on the group.)
type member struct {
	rep  *replica.Replica
	node *node

	killed, stalled bool
	rolled          bool
	rolledEpoch     int
}

type harness struct {
	cfg     Config
	rng     *rand.Rand
	sys     *core.System
	groups  []*replica.Group
	members [][]*member
	reg     *telemetry.Registry

	ops     []history.Op
	perKey  []int
	res     *Result
	nextVal int
}

// Run executes one seeded chaos run: fault phase, recovery actions, and
// the convergence window, returning the checked result. Run never hangs: a
// stalled member is abandoned at the group's deadline, so every epoch —
// and thus every client op — completes.
func Run(cfg Config) (*Result, error) {
	cfg.fillDefaults()
	h := &harness{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		perKey: make([]int, cfg.Keys),
		res:    &Result{ConvergedAfter: -1},
	}
	if err := h.build(); err != nil {
		return nil, err
	}
	defer h.sys.Close()

	// Fault phase: seeded events at each epoch boundary, client ops inside.
	epoch := 0
	for ; epoch < cfg.Epochs; epoch++ {
		h.schedule(epoch)
		if err := h.runEpoch(epoch); err != nil {
			return nil, err
		}
	}

	// Recovery actions: the operator restarts every crashed node and every
	// wedged one comes back — the last faults the convergence clock starts
	// from. (Members replaced by a promoted spare rejoin nothing; the
	// group already healed around them.)
	for p, ms := range h.members {
		for i, m := range ms {
			if m.killed {
				m.rep.Recover()
				m.killed = false
				h.event(Event{Epoch: epoch, Kind: "restart", Part: p, Member: i})
			}
			if m.stalled {
				m.node.unstall()
				m.stalled = false
				h.event(Event{Epoch: epoch, Kind: "unstall", Part: p, Member: i})
			}
		}
	}

	// Convergence window: within K epochs every partition must be healthy —
	// stale members resynced (or replaced), no consecutive failures, all
	// replies fresh.
	for k := 1; k <= cfg.K; k++ {
		if err := h.runEpoch(epoch); err != nil {
			return nil, err
		}
		epoch++
		if h.converged() {
			h.res.ConvergedAfter = k
			break
		}
	}

	h.res.Linearizable = history.CheckLinearizable(map[uint64]string{}, h.ops)
	for _, g := range h.groups {
		h.res.GroupStats = append(h.res.GroupStats, g.Stats())
	}
	h.res.Health = h.sys.Health()
	h.res.Telemetry = h.reg.Snapshot(0)
	return h.res, nil
}

func (h *harness) build() error {
	cfg := h.cfg
	// One registry observes the whole stack, so the soak can check that
	// telemetry never drifts from the groups' and core's own accounting.
	h.reg = telemetry.NewRegistry()
	subs := make([]core.SubORAMClient, cfg.Parts)
	for p := 0; p < cfg.Parts; p++ {
		n := cfg.F + cfg.R + 1
		reps := make([]*replica.Replica, n)
		ms := make([]*member, n)
		for i := range reps {
			nd := newNode(cfg.BlockSize)
			reps[i] = replica.NewReplica(nd)
			ms[i] = &member{rep: reps[i], node: nd}
		}
		g, err := replica.NewGroup(reps, nil, cfg.F, cfg.R)
		if err != nil {
			return err
		}
		g.SetTimeout(cfg.Timeout)
		g.SetAutoHeal(cfg.HealAfter)
		g.SetTelemetry(h.reg)
		for s := 0; s < cfg.Spares; s++ {
			g.AddSpare(replica.NewReplica(newNode(cfg.BlockSize)))
		}
		h.groups = append(h.groups, g)
		h.members = append(h.members, ms)
		subs[p] = g
	}
	sys, err := core.NewWithSubORAMs(core.Config{
		BlockSize: cfg.BlockSize, NumLoadBalancers: 1, Lambda: 32,
		Telemetry: h.reg,
	}, subs)
	if err != nil {
		return err
	}
	h.sys = sys
	ids := make([]uint64, cfg.Keys)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return sys.Init(ids, make([]byte, cfg.Keys*cfg.BlockSize))
}

func (h *harness) event(e Event) {
	h.res.Events = append(h.res.Events, e)
	if h.cfg.Log != nil {
		h.cfg.Log("epoch %d: %s part %d member %d", e.Epoch, e.Kind, e.Part, e.Member)
	}
}

// crashActive counts concurrent crash-type faults (kill, stall) in a part;
// rollActive counts rollbacks not yet presumed healed. Both are computed
// from harness bookkeeping only, keeping the schedule deterministic.
func (h *harness) crashActive(p int) int {
	n := 0
	for _, m := range h.members[p] {
		if m.killed || m.stalled {
			n++
		}
	}
	return n
}

func (h *harness) rollActive(p, epoch int) int {
	n := 0
	for _, m := range h.members[p] {
		// A rollback is presumed repaired once auto-heal has had a full
		// threshold of epochs to resync the member. This is a scheduling
		// assumption, not a checked invariant; if heal is slower, the group
		// briefly exceeds its rollback budget and simply degrades (epoch
		// errors), which the history and convergence checks still cover.
		if m.rolled && epoch-m.rolledEpoch <= h.cfg.HealAfter+1 {
			n++
		} else if m.rolled {
			m.rolled = false
		}
	}
	return n
}

// schedule draws this epoch's fault events (0–2) from the seeded generator.
func (h *harness) schedule(epoch int) {
	for e := h.rng.Intn(3); e > 0; e-- {
		p := h.rng.Intn(h.cfg.Parts)
		i := h.rng.Intn(len(h.members[p]))
		m := h.members[p][i]
		switch {
		case m.killed:
			if h.rng.Intn(2) == 0 {
				m.rep.Recover()
				m.killed = false
				h.event(Event{Epoch: epoch, Kind: "restart", Part: p, Member: i})
			}
		case m.stalled:
			if h.rng.Intn(2) == 0 {
				m.node.unstall()
				m.stalled = false
				h.event(Event{Epoch: epoch, Kind: "unstall", Part: p, Member: i})
			}
		default:
			switch h.rng.Intn(3) {
			case 0:
				if h.crashActive(p) < h.cfg.F {
					m.rep.Fail()
					m.killed = true
					h.event(Event{Epoch: epoch, Kind: "kill", Part: p, Member: i})
				}
			case 1:
				if h.crashActive(p) < h.cfg.F {
					m.node.stall()
					m.stalled = true
					h.event(Event{Epoch: epoch, Kind: "stall", Part: p, Member: i})
				}
			case 2:
				if h.rollActive(p, epoch) < h.cfg.R {
					if err := m.rep.Rollback(); err == nil {
						m.rolled = true
						m.rolledEpoch = epoch
						h.event(Event{Epoch: epoch, Kind: "rollback", Part: p, Member: i})
					}
				}
			}
		}
	}
}

// runEpoch submits the epoch's client ops, flushes, and folds the outcomes
// into the recorded history.
func (h *harness) runEpoch(epoch int) error {
	type pendOp struct {
		op   history.Op
		wait func() ([]byte, bool, error)
	}
	var pend []pendOp
	for j := 0; j < h.cfg.OpsPerEpoch; j++ {
		key := uint64(h.rng.Intn(h.cfg.Keys))
		for h.perKey[key] >= 60 { // stay under the checker's per-register cap
			key = uint64(h.rng.Intn(h.cfg.Keys))
		}
		write := h.rng.Intn(2) == 0
		op := history.Op{Key: key, Write: write, Start: time.Now().UnixNano()}
		var wait func() ([]byte, bool, error)
		var err error
		if write {
			h.nextVal++
			op.Input = fmt.Sprintf("v%d", h.nextVal)
			// Batched writes return the epoch-start value, not the
			// immediate predecessor — exclude the output, keep the effect.
			op.IgnoreOutput = true
			wait, err = h.sys.WriteAsync(key, []byte(op.Input))
		} else {
			wait, err = h.sys.ReadAsync(key)
		}
		if err != nil {
			return fmt.Errorf("chaos: submit failed: %w", err)
		}
		h.perKey[key]++
		pend = append(pend, pendOp{op: op, wait: wait})
	}
	h.sys.Flush()
	for _, p := range pend {
		v, found, err := p.wait()
		h.res.Ops++
		op := p.op
		op.End = time.Now().UnixNano()
		if err != nil {
			h.res.FailedOps++
			if !op.Write {
				// A failed read observed nothing and has no effect: drop it.
				continue
			}
			// A failed write is indeterminate — the batch may have executed
			// on surviving replicas before the quorum was lost. Record it as
			// free to linearize at any later point (unbounded end time): the
			// checker then accepts both outcomes but still rejects impossible
			// ones (e.g. the value appearing and later un-appearing).
			op.End = math.MaxInt64
			h.ops = append(h.ops, op)
			continue
		}
		if !op.Write {
			if found {
				op.Output = string(bytes.TrimRight(v, "\x00"))
			}
		}
		h.ops = append(h.ops, op)
	}
	return nil
}

// converged reports the invariant: core sees no failing or repairing
// partition, and every group's last batch got fresh replies from all
// members.
func (h *harness) converged() bool {
	if !h.sys.Health().Healthy() {
		return false
	}
	for _, g := range h.groups {
		st := g.Stats()
		if st.Fresh != st.Members {
			return false
		}
	}
	return true
}
