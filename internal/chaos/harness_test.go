// Package chaos is a deterministic, seeded fault-injection harness for the
// partition plane: a core.System over replicated partitions
// (replica.Group quorums) is driven through a seeded schedule of kill /
// stall / rollback / restart events while client operations run, and the
// recorded history is checked for linearizability (internal/history). The
// harness also checks the convergence invariant: within K epochs of the
// last fault, every partition reports healthy again.
//
// Faults live in the harness's node wrapper, not in replica: a killed node
// fails every call, a stalled one holds its batches until released, and a
// rolled-back one is restored to its initial sealed image and epoch. The
// schedule is a pure function of Config.Seed, and at every epoch boundary
// the harness waits until each unstalled member has answered every batch
// issued, so the outcome replays too: a seed gives the same failed
// operations, convergence epoch and group counters on every run.
//
// Socket-level fault injection (severed attested channels, stalled frames)
// is exercised separately by internal/faultnet with the transport and core
// failover tests; this harness drives member faults, where the §9 failure
// model (crashes and sealed-state rollbacks) lives.
package chaos

import (
	"bytes"
	"errors"
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
	// members killed or stalled and at most R rolled back or restarted but
	// not yet re-admitted, matching the f+r+1 sizing of §9.
	F, R int
	// Keys is the object count; BlockSize the value size.
	Keys, BlockSize int
	// Epochs is the fault phase length; OpsPerEpoch the client load.
	Epochs, OpsPerEpoch int
	// K is the convergence budget: after the recovery actions that follow
	// the fault phase, every partition must be healthy within K epochs.
	K int
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
	// returned errors (none while every group stays within its budget).
	Ops, FailedOps int
	// Events is the full schedule that ran, in order.
	Events []Event
	// Linearizable is the history.CheckLinearizable verdict.
	Linearizable bool
	// ConvergedAfter is how many post-recovery epochs it took for every
	// partition to report healthy, or -1 if the K budget ran out.
	ConvergedAfter int
	// GroupStats are the per-partition replication counters at the end
	// (stale replies, resyncs/bytes/epochs, fresh members).
	GroupStats []replica.GroupStats
	// Health is core's final per-partition health snapshot.
	Health core.HealthStats
	// Telemetry is the final snapshot of the run's telemetry registry
	// (wired through core and every replica group). It mirrors the events
	// GroupStats and Health count, so they must agree exactly — the
	// harness's tests assert it for every seed.
	Telemetry telemetry.Snapshot
}

var errDown = errors.New("chaos: node down")

// node is a chaos-controllable group member: a replica.Node whose host can
// be killed (every call fails), stalled (deliveries and restores wait until
// released: a wedged enclave, a dead host behind a live session) or rolled
// back (the initial sealed image and its epoch come back together).
type node struct {
	*replica.Node
	ids  []uint64
	data []byte

	mu   sync.Mutex
	dead bool
	gate chan struct{} // non-nil while stalled
}

func newNode(blockSize int) *node {
	return &node{Node: replica.NewNode(suboram.New(suboram.Config{BlockSize: blockSize}))}
}

// set kills or stalls the node, or with neither brings it back up and
// releases a stalled call.
func (n *node) set(killed, stalled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dead = killed
	if stalled && n.gate == nil {
		n.gate = make(chan struct{})
	} else if !stalled && n.gate != nil {
		close(n.gate)
		n.gate = nil
	}
}

// enter waits out a stall, then fails if the node is killed.
func (n *node) enter() error {
	n.mu.Lock()
	gate := n.gate
	n.mu.Unlock()
	if gate != nil {
		<-gate
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return errDown
	}
	return nil
}

func (n *node) Init(ids []uint64, data []byte) error {
	n.ids, n.data = append([]uint64(nil), ids...), append([]byte(nil), data...)
	return n.Node.Init(ids, data)
}

func (n *node) Deliver(tag store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	if err := n.enter(); err != nil {
		return nil, err
	}
	return n.Node.Deliver(tag, reqs)
}

func (n *node) Restore(ids []uint64, data []byte, epoch uint64) error {
	if err := n.enter(); err != nil {
		return err
	}
	return n.Node.Restore(ids, data, epoch)
}

// Export fails on a killed or stalled node instead of waiting: a stale
// member waits for its donor's export, and settle waits on every unstalled
// member, so a stalled donor must not hold one. (The group itself survives
// a donor whose Export blocks; replica's tests cover that.)
func (n *node) Export() ([]uint64, []byte, uint64, error) {
	n.mu.Lock()
	down := n.dead || n.gate != nil
	n.mu.Unlock()
	if down {
		return nil, nil, 0, errDown
	}
	return n.Node.Export()
}

// rollback is the §9 attack: the host restarts the enclave from its initial
// sealed image, so state and sealed epoch revert together.
func (n *node) rollback() error { return n.Node.Restore(n.ids, n.data, 0) }

// member is the harness's deterministic view of one group member.
type member struct {
	*node
	killed, stalled bool
	// pending: rolled back or restarted, until the group re-admits it.
	pending bool
}

type harness struct {
	cfg      Config
	rng      *rand.Rand
	sys      *core.System
	groups   []*replica.Group
	counters []*replica.TrustedCounter
	members  [][]*member
	reg      *telemetry.Registry

	ops     []history.Op
	perKey  []int
	res     *Result
	nextVal int
}

// Run executes one seeded chaos run: fault phase, recovery actions, and
// the convergence window, returning the checked result. Within the budgets
// every batch reaches its quorum, so every epoch — and every client op —
// completes.
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
	defer func() {
		// Release stalled members so no member goroutine outlives the run.
		for _, ms := range h.members {
			for _, m := range ms {
				m.set(false, false)
			}
		}
		h.sys.Close()
	}()

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
	// from.
	for p, ms := range h.members {
		for i, m := range ms {
			if m.killed {
				h.restart(p, i, epoch)
			}
			if m.stalled {
				h.unstall(p, i, epoch)
			}
		}
	}

	// Convergence window: within K epochs every partition must be healthy,
	// with every member re-admitted.
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
		ms := make([]*member, cfg.F+cfg.R+1)
		cs := make([]replica.Client, len(ms))
		for i := range ms {
			ms[i] = &member{node: newNode(cfg.BlockSize)}
			cs[i] = ms[i].node
		}
		ctr := &replica.TrustedCounter{}
		g, err := replica.NewGroup(cs, cfg.BlockSize, ctr, cfg.F, cfg.R)
		if err != nil {
			return err
		}
		g.SetTelemetry(h.reg)
		h.groups = append(h.groups, g)
		h.counters = append(h.counters, ctr)
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

// settle waits until every unstalled member has answered every batch
// issued, so faults land at a batch boundary and the group's counters are
// final for the epoch. Which members to wait on is harness bookkeeping;
// nothing here reads a clock.
func (h *harness) settle() {
	for p, ms := range h.members {
		for i, m := range ms {
			if !m.stalled {
				h.groups[p].WaitIdle(i)
			}
		}
	}
}

// crashActive counts a part's killed or stalled members (the f budget).
func (h *harness) crashActive(p int) int {
	n := 0
	for _, m := range h.members[p] {
		if m.killed || m.stalled {
			n++
		}
	}
	return n
}

// pendingActive counts a part's rolled-back or restarted members the group
// has not yet re-admitted (the r budget): a member is back once its sealed
// epoch is the counter's again.
func (h *harness) pendingActive(p int) int {
	n := 0
	for _, m := range h.members[p] {
		if m.pending && m.Epoch() == h.counters[p].Current() {
			m.pending = false
		}
		if m.pending {
			n++
		}
	}
	return n
}

func (h *harness) restart(p, i, epoch int) {
	m := h.members[p][i]
	m.set(false, false)
	m.killed, m.pending = false, true
	h.event(Event{Epoch: epoch, Kind: "restart", Part: p, Member: i})
}

func (h *harness) unstall(p, i, epoch int) {
	m := h.members[p][i]
	m.set(false, false)
	m.stalled = false
	h.event(Event{Epoch: epoch, Kind: "unstall", Part: p, Member: i})
}

// schedule draws this epoch's fault events (0–2) from the seeded generator.
func (h *harness) schedule(epoch int) {
	for e := h.rng.Intn(3); e > 0; e-- {
		p := h.rng.Intn(h.cfg.Parts)
		i := h.rng.Intn(len(h.members[p]))
		m := h.members[p][i]
		switch {
		case m.killed:
			if h.rng.Intn(2) == 0 && h.pendingActive(p) < h.cfg.R {
				h.restart(p, i, epoch)
			}
		case m.stalled:
			if h.rng.Intn(2) == 0 {
				h.unstall(p, i, epoch)
			}
		default:
			switch h.rng.Intn(3) {
			case 0:
				if h.crashActive(p) < h.cfg.F {
					m.set(true, false)
					m.killed = true
					h.event(Event{Epoch: epoch, Kind: "kill", Part: p, Member: i})
				}
			case 1:
				if h.crashActive(p) < h.cfg.F {
					m.set(false, true)
					m.stalled = true
					h.event(Event{Epoch: epoch, Kind: "stall", Part: p, Member: i})
				}
			case 2:
				if h.pendingActive(p) < h.cfg.R {
					if err := m.rollback(); err == nil {
						m.pending = true
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
	// Members a fault event just released catch up before the batch.
	h.settle()
	defer h.settle()
	var pend []pendOp
	for j := 0; j < h.cfg.OpsPerEpoch; j++ {
		key := uint64(h.rng.Intn(h.cfg.Keys))
		for h.perKey[key] >= 60 { // stay under the checker's per-register cap
			key = uint64(h.rng.Intn(h.cfg.Keys))
		}
		write := h.rng.Intn(2) == 0
		op := history.Op{Key: key, Write: write, Start: time.Now().UnixNano()}
		req := core.Request{Op: store.OpRead, Key: key}
		if write {
			h.nextVal++
			op.Input = fmt.Sprintf("v%d", h.nextVal)
			// Batched writes return the epoch-start value, not the
			// immediate predecessor — exclude the output, keep the effect.
			op.IgnoreOutput = true
			req.Op, req.Value = store.OpWrite, []byte(op.Input)
		}
		wait, err := h.sys.Submit(req)
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
// partition, and no group has a stale member.
func (h *harness) converged() bool {
	if !h.sys.Health().Healthy() {
		return false
	}
	for _, g := range h.groups {
		if st := g.Stats(); st.Fresh != st.Members {
			return false
		}
	}
	return true
}
