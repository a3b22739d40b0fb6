// Root-failover chaos: a deterministic, seeded harness for the sealed
// epoch journal, standby-root promotion, and end-to-end exactly-once
// replies. Where the partition harness (chaos.go) drives replica-layer
// faults under a healthy root, this one kills the root itself — at the
// three crash points the journal protocol distinguishes (before the
// journal write, after it, and after dispatch but before replies) — and
// lets a cluster.Supervisor promote a standby over the same journal
// directory while clients retry unanswered requests under their original
// idempotency IDs.
//
// Checked invariants, all timing-independent:
//
//   - the recorded client history is linearizable (internal/history),
//     with replayed answers attributed to their full submit→reply window;
//   - every tracked request is answered exactly once: retries of
//     unanswered requests produce exactly one answer (journal replay or
//     fresh execution, never both), and deliberate duplicate retries of
//     answered requests return byte-identical parked answers that the
//     client-side ReplyDedup window suppresses;
//   - every root crash is matched by exactly one supervisor promotion,
//     with a measured time-to-recovery.
//
// The schedule is a pure function of RootConfig.Seed plus the explicit
// Crashes plan, exactly as in the partition harness: which epoch crashes
// the root at which point, and which partition dies for how long, depend
// only on the seeded generator and harness bookkeeping.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/cluster"
	"snoopy/internal/core"
	"snoopy/internal/history"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// crashPoints are the journal-protocol crash sites core exposes for
// tests, in increasing order of how much of the epoch survives the root.
var crashPoints = []string{"stage-a", "journal", "dispatch"}

// RootConfig parameterizes one root-failover chaos run. The zero value
// gets defaults; Seed alone distinguishes runs. Dir is required: it is
// the journal directory every root incarnation shares.
type RootConfig struct {
	// Parts is the number of partitions (plain subORAMs behind shared
	// replay caches — partition replication is chaos.go's subject).
	Parts int
	// Keys is the object count; BlockSize the value size.
	Keys, BlockSize int
	// Epochs is the fault phase length; OpsPerEpoch the client load.
	Epochs, OpsPerEpoch int
	// Seed drives the event schedule and the workload.
	Seed int64
	// Dir is the sealed journal directory shared by all root
	// incarnations (typically t.TempDir()). Required.
	Dir string
	// Crashes, when non-nil, pins a crash point to an epoch (1-based
	// harness epoch → one of "stage-a" | "journal" | "dispatch"),
	// overriding the seeded draw for those epochs. Tests use it to cover
	// every crash site deterministically.
	Crashes map[int]string
	// Log, when non-nil, narrates events (e.g. t.Logf).
	Log func(format string, args ...any)

	// depth is every root incarnation's core.Config.PipelineDepth (the
	// tests run the harness at 1 and at 4).
	depth int
}

func (c *RootConfig) fillDefaults() {
	if c.Parts <= 0 {
		c.Parts = 3
	}
	if c.Keys <= 0 {
		c.Keys = 16
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.OpsPerEpoch <= 0 {
		c.OpsPerEpoch = 6
	}
}

// RootEvent is one scheduled fault or recovery action in a root run.
type RootEvent struct {
	Epoch int
	Kind  string // "crash-root@<point>" | "kill-part" | "revive-part" | "promote" | "dup-retry"
	Part  int    // partition for kill/revive, else -1
}

// RootResult summarizes one root-failover run.
type RootResult struct {
	// Ops is the number of tracked client requests issued; Retries the
	// number of re-submissions of unanswered requests (same idempotency
	// ID); FailedAttempts the number of submissions that returned an
	// error (root down or partition down) before the retry succeeded.
	Ops, Retries, FailedAttempts int
	// Duplicates counts deliberate duplicate retries of already-answered
	// requests whose second answer the ReplyDedup window suppressed.
	Duplicates int
	// RootCrashes is the number of root kills; Unanswered the number of
	// tracked requests still unanswered after the drain phase (0 on a
	// passing run).
	RootCrashes, Unanswered int
	// Events is the full schedule that ran, in order.
	Events []RootEvent
	// Linearizable is the history.CheckLinearizable verdict.
	Linearizable bool
	// ExactlyOnce reports the reply invariant: every tracked request was
	// answered exactly once, and every duplicate answer was suppressed
	// and byte-identical to the first.
	ExactlyOnce bool
	// SupStats carries the supervisor's accounting (trips, promotions,
	// time-to-recovery).
	SupStats cluster.Stats
	// Telemetry is the final registry snapshot, for drift checks against
	// SupStats.
	Telemetry telemetry.Snapshot
}

var errPartDown = errors.New("chaos: partition down")

// killPart is a plain subORAM with a kill switch: while down, every batch
// errors before touching state, modeling a crashed partition server whose
// replay cache and store survive (the gate sits inside the partition, so
// the LocalTagged wrapper still consumes its delivery sequence and the
// root's journaled tag predictions stay aligned).
type killPart struct {
	inner *suboram.SubORAM
	down  atomic.Bool
}

func (p *killPart) Init(ids []uint64, data []byte) error { return p.inner.Init(ids, data) }

func (p *killPart) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	if p.down.Load() {
		return nil, errPartDown
	}
	return p.inner.BatchAccess(reqs)
}

// rootPend is one tracked request awaiting its answer, carried across
// epochs (and root incarnations) until answered.
type rootPend struct {
	id   uint64
	op   history.Op
	wait func() ([]byte, bool, error)
}

type rootHarness struct {
	cfg RootConfig
	rng *rand.Rand
	res *RootResult

	parts []*killPart
	rcs   []*transport.ReplayCache
	reg   *telemetry.Registry
	sup   *cluster.Supervisor

	// armed is the crash point the next Flush fires, shared by every
	// incarnation's TestCrashPoint hook; fired once then cleared.
	mu    sync.Mutex
	armed string

	dedup    *transport.ReplyDedup
	answered map[uint64]int    // successful answers per tracked ID
	firstAns map[uint64]string // first answer, for duplicate comparison

	downUntil []int // partition revival epoch, 0 = up

	ops     []history.Op
	perKey  []int
	pending []rootPend
	nextID  uint64
	nextVal int
	exactly bool
}

// RunRoot executes one seeded root-failover chaos run and returns the
// checked result. Run never hangs: crashed roots answer every in-flight
// wait with ErrRootDown, promotions are awaited under a deadline, and the
// drain phase is bounded.
func RunRoot(cfg RootConfig) (*RootResult, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: RootConfig.Dir (journal directory) is required")
	}
	h := &rootHarness{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		res:       &RootResult{},
		dedup:     transport.NewReplyDedup(0),
		answered:  make(map[uint64]int),
		firstAns:  make(map[uint64]string),
		downUntil: make([]int, cfg.Parts),
		perKey:    make([]int, cfg.Keys),
		nextID:    1,
		exactly:   true,
	}
	if err := h.build(); err != nil {
		return nil, err
	}
	defer func() {
		h.sup.Close()
		if cur := h.sup.Root(); cur != nil {
			cur.Close()
		}
	}()

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		h.schedule(epoch)
		if err := h.runEpoch(epoch, true); err != nil {
			return nil, err
		}
	}
	if err := h.drain(); err != nil {
		return nil, err
	}

	// Requests still unanswered after the drain: failed writes are
	// indeterminate (free to linearize at any later point), failed reads
	// observed nothing and are dropped — the same conventions as the
	// partition harness. Any of them is an exactly-once violation.
	for _, p := range h.pending {
		h.res.Unanswered++
		h.exactly = false
		if p.op.Write {
			op := p.op
			op.End = math.MaxInt64
			h.ops = append(h.ops, op)
		}
	}
	for id, n := range h.answered {
		if n != 1 {
			h.exactly = false
			if cfg.Log != nil {
				cfg.Log("request %d answered %d times", id, n)
			}
		}
	}
	h.res.ExactlyOnce = h.exactly
	h.res.Linearizable = history.CheckLinearizable(map[uint64]string{}, h.ops)
	h.sup.Close()
	h.res.SupStats = h.sup.Stats()
	h.res.Telemetry = h.reg.Snapshot(0)
	return h.res, nil
}

func (h *rootHarness) build() error {
	cfg := h.cfg
	for p := 0; p < cfg.Parts; p++ {
		h.parts = append(h.parts, &killPart{inner: suboram.New(suboram.Config{BlockSize: cfg.BlockSize})})
		h.rcs = append(h.rcs, transport.NewReplayCache())
	}
	root, err := h.newRoot()
	if err != nil {
		return err
	}
	ids := make([]uint64, cfg.Keys)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := root.Init(ids, make([]byte, cfg.Keys*cfg.BlockSize)); err != nil {
		root.Close()
		return err
	}
	h.reg = telemetry.NewRegistry()
	h.sup = cluster.NewSupervisor(cluster.Policy{FailAfter: 1, ProbeInterval: time.Millisecond})
	h.sup.Instrument(h.reg)
	h.sup.SuperviseRoot(root, func(old *core.System) (*core.System, error) {
		if old != nil {
			old.Close()
		}
		return h.newRoot()
	})
	return nil
}

// newRoot opens one root incarnation over the shared journal directory
// and replay caches. Opening replays any journaled-but-incomplete epochs
// left by a crashed predecessor.
func (h *rootHarness) newRoot() (*core.System, error) {
	clients := make([]core.SubORAMClient, len(h.parts))
	for i := range h.parts {
		clients[i] = transport.NewLocalTagged(h.parts[i], h.rcs[i])
	}
	return core.NewWithSubORAMs(core.Config{
		BlockSize:        h.cfg.BlockSize,
		NumLoadBalancers: 2,
		Lambda:           32,
		PipelineDepth:    h.cfg.depth,
		JournalDir:       h.cfg.Dir,
		TestCrashPoint:   h.crashHook,
	}, clients)
}

// crashHook is the TestCrashPoint shared by every incarnation: it fires
// the armed point once, then disarms.
func (h *rootHarness) crashHook(point string, _ uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if point != "" && point == h.armed {
		h.armed = ""
		return true
	}
	return false
}

func (h *rootHarness) arm(point string) {
	h.mu.Lock()
	h.armed = point
	h.mu.Unlock()
}

func (h *rootHarness) event(e RootEvent) {
	h.res.Events = append(h.res.Events, e)
	if h.cfg.Log != nil {
		h.cfg.Log("epoch %d: %s part %d", e.Epoch, e.Kind, e.Part)
	}
}

// schedule draws this epoch's fault from the seeded generator (or the
// explicit Crashes plan): revive due partitions, then with seeded odds
// either arm a root crash at one of the three journal-protocol points or
// kill one partition for two epochs. All decisions depend only on the
// generator and harness bookkeeping, never on runtime outcomes, so a
// seed replays exactly.
func (h *rootHarness) schedule(epoch int) {
	for p := range h.downUntil {
		if h.downUntil[p] != 0 && h.downUntil[p] <= epoch {
			h.downUntil[p] = 0
			h.parts[p].down.Store(false)
			h.event(RootEvent{Epoch: epoch, Kind: "revive-part", Part: p})
		}
	}
	// Draw unconditionally so the generator stream does not depend on the
	// explicit plan.
	roll, point, part := h.rng.Intn(6), h.rng.Intn(len(crashPoints)), h.rng.Intn(h.cfg.Parts)
	if forced, ok := h.cfg.Crashes[epoch]; ok {
		h.arm(forced)
		h.event(RootEvent{Epoch: epoch, Kind: "crash-root@" + forced, Part: -1})
		return
	}
	switch {
	case roll <= 1: // ~1/3 of epochs: root crash
		h.arm(crashPoints[point])
		h.event(RootEvent{Epoch: epoch, Kind: "crash-root@" + crashPoints[point], Part: -1})
	case roll == 2: // ~1/6: partition outage for two epochs
		if h.downUntil[part] == 0 {
			h.downUntil[part] = epoch + 2
			h.parts[part].down.Store(true)
			h.event(RootEvent{Epoch: epoch, Kind: "kill-part", Part: part})
		}
	}
}

// submit sends one tracked request to sys, preserving the pend's
// idempotency ID and history window across retries.
func (h *rootHarness) submit(sys *core.System, p *rootPend) error {
	var err error
	if p.op.Write {
		p.wait, err = sys.WriteIdemAsync(p.id, p.op.Key, []byte(p.op.Input))
	} else {
		p.wait, err = sys.ReadIdemAsync(p.id, p.op.Key)
	}
	if err != nil {
		// Root crashed between promotion and submit: keep the pend, a
		// later round retries it.
		p.wait = nil
		h.res.FailedAttempts++
	}
	return nil
}

// runEpoch resubmits carried-over pends, adds fresh client ops (during
// the fault phase), flushes the current root, and folds the outcomes into
// the history. A root crash during the flush is detected here, reported
// to the supervisor, and the promoted standby awaited before returning.
func (h *rootHarness) runEpoch(epoch int, fresh bool) error {
	cur := h.sup.Root()
	round := h.pending
	h.pending = nil
	for i := range round {
		h.res.Retries++
		if err := h.submit(cur, &round[i]); err != nil {
			return err
		}
	}
	if fresh {
		for j := 0; j < h.cfg.OpsPerEpoch; j++ {
			key := uint64(h.rng.Intn(h.cfg.Keys))
			for h.perKey[key] >= 60 { // stay under the checker's per-register cap
				key = uint64(h.rng.Intn(h.cfg.Keys))
			}
			write := h.rng.Intn(2) == 0
			op := history.Op{Key: key, Write: write, Start: time.Now().UnixNano()}
			if write {
				h.nextVal++
				op.Input = fmt.Sprintf("r%d", h.nextVal)
				// Batched writes return the epoch-start value, not an echo.
				op.IgnoreOutput = true
			}
			h.perKey[key]++
			h.res.Ops++
			p := rootPend{id: h.nextID, op: op}
			h.nextID++
			if err := h.submit(cur, &p); err != nil {
				return err
			}
			round = append(round, p)
		}
	}
	cur.Flush()
	// Resolve the round before looking at the root: with epochs in flight a
	// "dispatch" crash lands after Flush returns, and a wait returns only
	// once its epoch has replied or the root has died.
	for i := range round {
		h.collect(cur, &round[i])
	}
	crashed := cur.Crashed()
	h.sup.ObserveRootHealth(!crashed)
	if crashed {
		h.res.RootCrashes++
		if err := h.awaitPromotion(cur); err != nil {
			return err
		}
		h.event(RootEvent{Epoch: epoch, Kind: "promote", Part: -1})
	}
	return nil
}

// collect resolves one pend's outcome: an answer is recorded in the
// history and counted against the exactly-once invariant (with a
// deterministic subset immediately re-asked to exercise the duplicate
// path); an error keeps the pend for the next round's retry.
func (h *rootHarness) collect(cur *core.System, p *rootPend) {
	if p.wait == nil {
		h.pending = append(h.pending, *p)
		return
	}
	v, found, err := p.wait()
	p.wait = nil
	if err != nil {
		h.res.FailedAttempts++
		h.pending = append(h.pending, *p)
		return
	}
	ans := ""
	if found {
		ans = string(bytes.TrimRight(v, "\x00"))
	}
	h.answered[p.id]++
	if !h.dedup.Deliver(p.id) {
		// We only wait once per attempt and never retry answered IDs, so
		// a suppressed first delivery means the window lied.
		h.exactly = false
	}
	h.firstAns[p.id] = ans
	op := p.op
	op.End = time.Now().UnixNano()
	if !op.Write {
		op.Output = ans
	}
	h.ops = append(h.ops, op)

	// Deliberate duplicate: re-ask a deterministic subset of answered
	// requests under the same ID, modeling a reply lost between root and
	// client. The parked answer must be byte-identical and the client
	// window must suppress the second delivery.
	if p.id%5 == 3 && !cur.Crashed() {
		h.dupRetry(cur, p, ans, found)
	}
}

func (h *rootHarness) dupRetry(cur *core.System, p *rootPend, ans string, found bool) {
	var v2 []byte
	var found2 bool
	var err error
	if p.op.Write {
		v2, found2, err = cur.WriteIdem(p.id, p.op.Key, []byte(p.op.Input))
	} else {
		v2, found2, err = cur.ReadIdem(p.id, p.op.Key)
	}
	if err != nil {
		// The root died between the answer and the duplicate; nothing to
		// check — the original answer already counted.
		return
	}
	ans2 := ""
	if found2 {
		ans2 = string(bytes.TrimRight(v2, "\x00"))
	}
	if ans2 != ans || found2 != found {
		h.exactly = false
		if h.cfg.Log != nil {
			h.cfg.Log("request %d: duplicate answer %q/%v differs from first %q/%v",
				p.id, ans2, found2, ans, found)
		}
	}
	if h.dedup.Deliver(p.id) {
		h.exactly = false // the window must suppress the second delivery
	} else {
		h.res.Duplicates++
	}
	h.event(RootEvent{Epoch: 0, Kind: "dup-retry", Part: -1})
}

// awaitPromotion blocks until the supervisor serves a root other than the
// crashed one (the promotion loop itself retries every ProbeInterval). The
// deadline bounds only a run that is already failing, so it is generous
// enough for the race detector's slowdown.
func (h *rootHarness) awaitPromotion(dead *core.System) error {
	deadline := time.Now().Add(90 * time.Second)
	for {
		if cur := h.sup.Root(); cur != nil && cur != dead && !h.sup.RootDown() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: standby never promoted: %v", h.sup.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// drain retires every outstanding request after the fault phase: faults
// are cleared (partitions revived, crash hook disarmed) and retry rounds
// run until no pend remains or the bounded budget runs out.
func (h *rootHarness) drain() error {
	h.arm("")
	for p := range h.parts {
		if h.downUntil[p] != 0 {
			h.downUntil[p] = 0
			h.parts[p].down.Store(false)
			h.event(RootEvent{Epoch: h.cfg.Epochs + 1, Kind: "revive-part", Part: p})
		}
	}
	for round := 0; round < 8 && len(h.pending) > 0; round++ {
		if err := h.runEpoch(h.cfg.Epochs+1+round, false); err != nil {
			return err
		}
	}
	return nil
}
