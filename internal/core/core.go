// Package core assembles Snoopy's components into the full system of §3.1:
// L independent oblivious load balancers in front of S subORAM partitions,
// processing client requests in synchronized epochs.
//
// Concurrency model (paper §4.3, §C): clients enqueue requests with any load
// balancer at any time; at each epoch boundary every load balancer
// independently deduplicates and batches its pending requests; every
// subORAM then executes the L batches in fixed load-balancer order; finally
// each load balancer obliviously matches responses and replies. The
// resulting history is linearizable: operations are ordered by (epoch, load
// balancer, reads-before-writes, sequence), and a read always observes the
// latest write ordered before it.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/persist"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// SubORAMClient is a partition as the engine drives it: in-process,
// durable, replicated and remote partitions all satisfy it.
type SubORAMClient interface {
	// Init loads the partition contents.
	Init(ids []uint64, data []byte) error
	// Deliver, the engine's one call into a partition, applies an epoch's
	// batches, one per load balancer in the order linearizability depends
	// on, whole or not at all. It answers each batch row for row, echoing
	// the table key its rows carry (store.StampKey; another key fails the
	// epoch closed), in a slice valid until the next call.
	Deliver(tag store.DeliveryTag, batches []*store.Requests) ([]*store.Requests, error)
}

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("core: system closed")

// ErrOverflow is returned for requests dropped by per-subORAM batch
// overflow — the Theorem-3 event whose probability the batch-sizing
// function makes negligible. A dropped request was never sent to its
// partition, so failing it explicitly is the only truthful answer.
var ErrOverflow = errors.New("core: request dropped by batch overflow")

// Config configures a Snoopy deployment.
type Config struct {
	// BlockSize is the object value size in bytes.
	BlockSize int
	// NumLoadBalancers is L.
	NumLoadBalancers int
	// Lambda is the security parameter for batch sizing.
	Lambda int
	// Ticks, when non-nil, is the engine's one epoch source: every value
	// received runs one epoch, with up to tickerDepth epochs in flight
	// (dispatched, not yet replied; paper §6 pipelines load-balancer and
	// subORAM processing), and Flush starts nothing. Nil runs an epoch only
	// on Flush, one at a time. A fixed-period ticker (time.NewTicker(d).C)
	// makes the schedule, and D with it, a function of public configuration
	// only; the caller owns it and stops it after Close.
	Ticks <-chan time.Time
	// SortWorkers bounds the load balancers' sort parallelism.
	SortWorkers int
	// Failover is invoked, at most once in flight per partition, when a
	// partition fails failoverAfter consecutive epochs. Every epoch sends
	// every partition a batch, so the epoch is the partition heartbeat and
	// this is the one place a partition is declared down; failover timing
	// reveals only that a partition is down, which the epoch schedule
	// already makes public. It returns a replacement client (typically a
	// dialed standby, or a node freshly restored from internal/persist
	// sealed state) that serves the partition from the next epoch on.
	// Returning an error (or nil) leaves the old client in place; the
	// attempt is retried while the partition keeps failing. The old client
	// is passed so the hook can close it or salvage state. Telemetry counts
	// attempts (core_repairs_started_total), successes
	// (core_failovers_total) and, per success, the time from the outage's
	// first failed epoch (core_time_to_recovery). Nil disables failover.
	Failover FailoverFunc

	// JournalDir, when non-empty, makes the root load balancer itself
	// crash-tolerant: before every epoch's stage-B dispatch the system
	// durably journals the epoch's requests and client→reply routing tables
	// to a sealed epoch journal (internal/persist). Every delivery of epoch
	// E travels under the tag (stream, E), the stream derived from the
	// routing key the journal pins (JournalDir/route.key). On reopen — the
	// same process restarting, or a standby root promoted over the same
	// directory — journaled-but-incomplete epochs are re-run and dispatched
	// again under the same tags, so partitions that already applied a batch
	// answer from their delivery windows (transport.Window) and the epoch
	// commits exactly once.
	// An incomplete epoch journaled under another shape (L, S, BlockSize,
	// Lambda) fails the open.
	JournalDir string
	// JournalRec, when non-nil, receives the journal's host-visible I/O
	// trace (offsets and lengths) — the leakage suite asserts it is
	// byte-identical across secret-differing workloads.
	JournalRec *trace.Recorder

	// Telemetry, when non-nil, records per-epoch stage spans (stage A
	// batching, per-partition stage B, stage C match/reply, the whole
	// epoch) and system counters, and is threaded into every component the
	// system builds (the load balancers and the journal).
	// Every span tag is a public parameter: epoch number, partition index,
	// batch size α, request count R. Nil disables recording everywhere.
	Telemetry *telemetry.Registry

	// RouteKey, when non-nil, pins the load balancers' partition-assignment
	// key, so objects recovered from durable partitions stay reachable where
	// they were persisted. When nil, a JournalDir pins its own key
	// (JournalDir/route.key); otherwise the key is fresh.
	RouteKey *crypt.Key
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 160
	}
	if c.NumLoadBalancers <= 0 {
		c.NumLoadBalancers = 1
	}
	if c.Lambda <= 0 {
		c.Lambda = 128
	}
}

// EpochStats describes one completed epoch.
type EpochStats struct {
	Epoch       uint64
	Requests    int           // real client requests processed
	BatchSize   int           // max per-subORAM batch size α across LBs
	Dropped     int           // Theorem-3 overflow victims (expect 0)
	MakeBatch   time.Duration // max across load balancers
	SubORAM     time.Duration // max across subORAMs (sum over LB batches)
	Match       time.Duration // max across load balancers
	Wall        time.Duration // end-to-end epoch time
	LBWall      []time.Duration
	SubORAMWall []time.Duration
}

type lbState struct {
	lb *loadbalancer.LoadBalancer

	mu    sync.Mutex
	queue []pending
	// closed (guarded by mu, not the system-wide channel) makes the
	// enqueue-after-final-drain race impossible: Close sets it under mu
	// while draining, and enqueue re-checks it under the same mu before
	// appending, so no request can slip into a queue nobody will flush.
	closed bool
}

// System is a running Snoopy deployment.
type System struct {
	cfg Config
	lbs []*lbState

	// subsMu guards element swaps in subs: automatic failover (repair)
	// replaces a dead partition's client in place. Readers snapshot the
	// slice; the length never changes.
	subsMu sync.RWMutex
	subs   []SubORAMClient

	epochMu sync.Mutex // serializes epoch rounds (stage A)
	epoch   uint64
	// nextFlush is the channel a ticked engine's Flush calls wait on:
	// stage A hands it to its epoch, whose reply closes it.
	nextFlush chan struct{}

	statsMu    sync.Mutex
	lastEp     EpochStats
	totalDrops uint64
	health     HealthStats
	// downSince[s] is the telemetry-clock reading at which partition s's
	// latest consecutive-failure run began — the base of
	// core_time_to_recovery.
	downSince []int64
	repairWG  sync.WaitGroup

	// Stage-B execution plane: one long-lived worker per partition, each
	// draining its own FIFO job queue. Per-partition epoch order (required
	// for last-write-wins linearizability) is the queue order; partitions
	// drift across epochs independently, so a slow partition no longer
	// stalls the others' next-epoch scans. depthSem bounds the epochs in
	// flight and the sequencer runs the epoch-ordered completion work
	// (crash hook, health accounting, batch release, stage C).
	depth    int              // epochs in flight bound D (Config.Ticks)
	partQ    []chan *epochJob // per-partition FIFO job queues, cap depth
	bDone    chan *epochJob   // completed jobs, in epoch order
	seqDone  chan struct{}    // sequencer exited
	depthSem chan struct{}    // one token per epoch in flight
	workerWG sync.WaitGroup   // partition workers
	bOnce    sync.Once        // closes bDone exactly once
	// bGather/bIdx/bView are per-partition scratch for assembling the
	// live-batch slice handed to Deliver; partition s is only ever
	// processed by one worker at a time (FIFO queue), so slot s needs no
	// lock. bView[s] holds the per-plane batch window structs so the scan
	// dispatch allocates nothing per epoch (the views are consumed within
	// the partition call and never outlive it).
	bGather [][]*store.Requests
	bIdx    [][]int
	bView   [][]store.Requests
	pipeOff bool // set at Close; guarded by epochMu

	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup // the tick loop

	// Root fault-tolerance plane (Config.JournalDir). journal is the sealed
	// epoch journal; stream is the delivery-stream identity every dispatch
	// travels under, as (stream, epoch), drawn at random or derived from the
	// journal's pinned key. replyWin parks successful results of idempotent
	// requests; crashedCh is closed by a simulated
	// root crash (Crash, or crashHook). crashHook, set only by tests, is
	// consulted at the named points of every live epoch (crashAt).
	journal *persist.Journal
	// tableSecret keys every batch's table order (loadbalancer.TableKey):
	// fresh per System, or derived from a journal's pinned key (§17).
	tableSecret crypt.Key
	jrec        persist.JournalEpoch // journalBegin's record, reused (epochMu)
	stream      uint64
	replyWin    *replyWindow
	crashedCh   chan struct{}
	crashOne    sync.Once
	crashHook   func(point string, epoch uint64) bool

	// nextLB picks the load balancer for each submitted request, round
	// robin (enqueue).
	nextLB atomic.Uint64

	// acl, when set, enforces the Appendix-D access-control matrix via a
	// recursive Snoopy instance.
	acl *aclState

	// Telemetry instruments, resolved once at construction; all nil (and
	// no-ops) when Config.Telemetry is nil.
	telEpoch     *telemetry.Gauge
	telRequests  *telemetry.Counter
	telOverflow  *telemetry.Counter
	telPartFails *telemetry.Counter
	telRepairs   *telemetry.Counter
	telFailovers *telemetry.Counter
	telRecovery  *telemetry.Histogram
	stStageA     *telemetry.SpanStage
	stStageB     *telemetry.SpanStage
	stStageC     *telemetry.SpanStage
	stEpoch      *telemetry.SpanStage
}

// NewWithSubORAMs creates a deployment over caller-provided partitions
// (e.g. remote subORAMs reached over a transport).
func NewWithSubORAMs(cfg Config, subs []SubORAMClient) (*System, error) {
	cfg.fillDefaults()
	if len(subs) == 0 {
		return nil, fmt.Errorf("core: need at least one subORAM")
	}
	if cfg.JournalDir != "" && cfg.RouteKey == nil {
		// A successor root must route and match exactly like its
		// predecessor: pin the oblivious routing key in the journal
		// directory.
		key, err := persist.LoadOrCreateRoutingKey(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		cfg.RouteKey = &key
	}
	var key crypt.Key
	if cfg.RouteKey != nil {
		key = *cfg.RouteKey
	} else {
		var err error
		key, err = crypt.NewKey()
		if err != nil {
			return nil, err
		}
	}
	sys := &System{
		cfg:    cfg,
		subs:   append([]SubORAMClient(nil), subs...),
		closed: make(chan struct{}),
		health: HealthStats{
			ConsecutiveFailures: make([]int, len(subs)),
			TotalFailures:       make([]uint64, len(subs)),
			Failovers:           make([]uint64, len(subs)),
			Repairing:           make([]bool, len(subs)),
		},
		downSince: make([]int64, len(subs)),
		crashedCh: make(chan struct{}),
		nextFlush: make(chan struct{}),
		replyWin:  newReplyWindow(replyWindowSize),

		telEpoch:     cfg.Telemetry.Gauge("core_epoch"),
		telRequests:  cfg.Telemetry.Counter("core_requests_total"),
		telOverflow:  cfg.Telemetry.Counter("core_overflow_dropped_total"),
		telPartFails: cfg.Telemetry.Counter("core_partition_epoch_failures_total"),
		telRepairs:   cfg.Telemetry.Counter("core_repairs_started_total"),
		telFailovers: cfg.Telemetry.Counter("core_failovers_total"),
		telRecovery:  cfg.Telemetry.Histogram("core_time_to_recovery", nil),
		stStageA:     cfg.Telemetry.Stage("stage_a_batch"),
		stStageB:     cfg.Telemetry.Stage("stage_b_suboram"),
		stStageC:     cfg.Telemetry.Stage("stage_c_match"),
		stEpoch:      cfg.Telemetry.Stage("epoch"),
	}
	// The deployment shape is the public configuration every other label is
	// derived from; export it so an operator can interpret the rest.
	cfg.Telemetry.Gauge("snoopy_config_lbs").Set(int64(cfg.NumLoadBalancers))
	cfg.Telemetry.Gauge("snoopy_config_suborams").Set(int64(len(subs)))
	cfg.Telemetry.Gauge("snoopy_config_lambda").Set(int64(cfg.Lambda))
	cfg.Telemetry.Gauge("snoopy_config_block_bytes").Set(int64(cfg.BlockSize))
	lbCfg := loadbalancer.Config{
		BlockSize:   cfg.BlockSize,
		NumSubORAMs: len(subs),
		Lambda:      cfg.Lambda,
		SortWorkers: cfg.SortWorkers,
		Telemetry:   cfg.Telemetry,
	}
	for i := 0; i < cfg.NumLoadBalancers; i++ {
		sys.lbs = append(sys.lbs, &lbState{lb: loadbalancer.New(lbCfg, key)})
	}
	var incomplete []*persist.JournalEpoch
	// Without a journal the epoch numbers start again with every System, so
	// neither the table-key secret nor the delivery stream may come from a
	// pinned key.
	fresh, err := crypt.NewKey()
	if err != nil {
		return nil, err
	}
	sys.tableSecret, sys.stream = fresh, deliveryStream(fresh)
	if cfg.JournalDir != "" {
		j, open, err := persist.OpenJournal(cfg.JournalDir, cfg.JournalRec, cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		for _, je := range open {
			if err := sys.checkJournalShape(je); err != nil {
				j.Close()
				return nil, err
			}
		}
		sys.journal, sys.stream, incomplete = j, deliveryStream(key), open
		sys.tableSecret = tableSecret(key)
		// Continue the predecessor's epoch sequence (a crashed, unjournaled
		// stage A's number is safely reused — it was never dispatched).
		sys.epoch = j.LastEpoch()
	}
	sys.depth = 1
	if cfg.Ticks != nil {
		sys.depth = tickerDepth
	}
	cfg.Telemetry.Gauge("snoopy_config_pipeline_depth").Set(int64(sys.depth))
	sys.depthSem = make(chan struct{}, sys.depth)
	sys.bDone = make(chan *epochJob, sys.depth)
	sys.seqDone = make(chan struct{})
	go sys.sequencer()
	sys.partQ = make([]chan *epochJob, len(subs))
	sys.bGather = make([][]*store.Requests, len(subs))
	sys.bIdx = make([][]int, len(subs))
	sys.bView = make([][]store.Requests, len(subs))
	for s := range sys.partQ {
		sys.partQ[s] = make(chan *epochJob, sys.depth)
		sys.bGather[s] = make([]*store.Requests, 0, cfg.NumLoadBalancers)
		sys.bIdx[s] = make([]int, 0, cfg.NumLoadBalancers)
		sys.bView[s] = make([]store.Requests, cfg.NumLoadBalancers)
	}
	sys.workerWG.Add(len(subs))
	for s := range subs {
		go sys.partitionWorker(s)
	}
	// Re-run a crashed predecessor's journaled-but-incomplete epochs, in
	// order, before the system serves.
	for _, je := range incomplete {
		sys.replayEpoch(je)
	}
	if cfg.Ticks != nil {
		sys.wg.Add(1)
		go sys.tickLoop()
	}
	return sys, nil
}

// Init partitions the object set across subORAMs and loads them (paper
// Fig. 23). Must be called before any request.
func (sys *System) Init(ids []uint64, data []byte) error {
	partIDs, partData, err := sys.lbs[0].lb.Partition(ids, data)
	if err != nil {
		return err
	}
	subs := sys.snapshotSubs()
	var wg sync.WaitGroup
	errs := make([]error, len(subs))
	for s := range subs {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = subs[s].Init(partIDs[s], partData[s])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close stops the tick loop and fails all pending requests.
func (sys *System) Close() {
	sys.halt()
	sys.wg.Wait()
	// Shut the stage-B plane down in dependency order: stop new dispatches
	// (shutPipe under epochMu), let the workers drain every
	// already-dispatched epoch through stage B, then close the sequencer's
	// input and wait for it to run their stage C — a dispatched epoch
	// always completes fully, replies included.
	sys.epochMu.Lock()
	sys.shutPipe()
	sys.epochMu.Unlock()
	sys.workerWG.Wait()
	sys.bOnce.Do(func() { close(sys.bDone) })
	<-sys.seqDone
	// No stage B runs after this point, so no new repair can start; wait
	// out any in-flight attempt (its own dial deadlines bound the wait).
	sys.repairWG.Wait()
	sys.closeACL()
	// Fail whatever is still queued. The per-lbState closed flag is set
	// under the same mutex that guards enqueueing, so a submit racing with
	// Close either lands before this drain (and is failed here) or observes
	// closed and returns ErrClosed — never a queued request with no reply.
	crashed := sys.Crashed()
	for _, st := range sys.lbs {
		st.mu.Lock()
		st.closed = true
		q := st.queue
		st.queue = nil
		st.mu.Unlock()
		if crashed {
			// A crashed root answers nothing — its clients' waits already
			// resolved to ErrRootDown through the crash channel.
			continue
		}
		for _, p := range q {
			p.ch <- result{err: ErrClosed}
		}
	}
	if sys.journal != nil {
		sys.journal.Close()
	}
}

// halt closes sys.closed, once: every Flush blocked on a pipeline slot or
// waiting for a tick, and the tick loop, observe it.
func (sys *System) halt() {
	sys.closeOne.Do(func() { close(sys.closed) })
}

// snapshotSubs returns a stable view of the partition clients for one
// epoch (or Init): repair may swap an element concurrently, and a batch
// must go entirely to one client.
func (sys *System) snapshotSubs() []SubORAMClient {
	sys.subsMu.RLock()
	defer sys.subsMu.RUnlock()
	return append([]SubORAMClient(nil), sys.subs...)
}

// LastEpochStats returns statistics for the most recent completed epoch.
func (sys *System) LastEpochStats() EpochStats {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return sys.lastEp
}

// TotalDropped returns the cumulative count of requests dropped by batch
// overflow across all epochs (the Theorem-3 negligible event; expect 0).
func (sys *System) TotalDropped() uint64 {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return sys.totalDrops
}

// NumSubORAMs returns S.
func (sys *System) NumSubORAMs() int { return len(sys.subs) }

// NumLoadBalancers returns L.
func (sys *System) NumLoadBalancers() int { return len(sys.lbs) }

// SubORAMFor returns the partition storing id (the oblivious routing is
// shared across planes).
func (sys *System) SubORAMFor(id uint64) int { return sys.lbs[0].lb.SubORAMFor(id) }

// BlockSize returns the configured value size.
func (sys *System) BlockSize() int { return sys.cfg.BlockSize }
