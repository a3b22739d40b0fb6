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
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/persist"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// SubORAMClient is the interface the system needs from a partition: local
// (in-process) subORAMs and remote (transport-backed) ones both satisfy it.
type SubORAMClient interface {
	// Init loads the partition contents.
	Init(ids []uint64, data []byte) error
	// BatchAccess executes one batch of distinct requests and returns one
	// response row per request, in an order the rows declare
	// (store.StampOrder): an engine that answers in the order received
	// stamps key order, which is how a load balancer's batch arrives.
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
}

// BatchedSubORAMClient is the optional fast path for clients that can
// execute a whole epoch's worth of batches (one per load balancer) in a
// single exchange — a remote partition turns L round trips and L AEAD
// seals into one of each. Batches must be applied in slice order (the
// fixed load-balancer order linearizability depends on). The returned
// slice itself (not the Requests it points at) is only valid until the
// next BatchAccessN call on the same client.
type BatchedSubORAMClient interface {
	SubORAMClient
	BatchAccessN(reqs []*store.Requests) ([]*store.Requests, error)
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
	// NumSubORAMs is S (used only by NewLocal; NewWithSubORAMs infers it).
	NumSubORAMs int
	// Lambda is the security parameter for batch sizing.
	Lambda int
	// EpochDuration is the batching interval. Zero disables the internal
	// ticker; epochs then run only via Flush (deterministic tests).
	EpochDuration time.Duration
	// SubORAMWorkers and SortWorkers bound per-node parallelism.
	SubORAMWorkers int
	SortWorkers    int
	// Sealed stores partitions in enclave-external encrypted memory.
	Sealed bool
	// PipelineDepth D bounds the number of epochs in flight at once
	// (dispatched but not yet fully replied) — the epoch engine's one dial.
	// Stages overlap across epochs (paper §6: "we can pipeline the subORAM
	// and load balancer processing"): while the subORAMs execute epoch e,
	// the load balancers batch epoch e+1 and match epoch e-1. Flush returns
	// once at most D−1 epochs remain in flight, so 0 or 1 runs one epoch at
	// a time and Flush returns after its epoch has replied. Capped at 16.
	// The depth, like every scheduling parameter, is public deployment
	// configuration: the dispatch cadence it produces depends only on epoch
	// timing and batch sizes the network adversary already observes.
	PipelineDepth int
	// DataDir, when non-empty, makes every local partition durable
	// (internal/persist): sealed snapshots plus a sealed write-ahead log
	// under DataDir/part-NNN, the oblivious routing key sealed at
	// DataDir/route.key, and automatic crash recovery when the directory
	// already holds state. Only NewLocal honors it; remote partitions
	// persist on their own hosts (snoopy-server -data).
	DataDir string
	// DiskResident keeps partition block values on disk in sealed segments
	// (internal/segstore) instead of memory, letting a partition exceed RAM
	// by orders of magnitude: batches stream the oblivious scan over the
	// sealed segment file with redo-log durability. Requires DataDir.
	// Mutually exclusive with Sealed.
	DiskResident bool
	// SegmentBytes is the disk-resident segment size in bytes (default
	// 512 blocks' worth): the streaming-scan buffer and write-back
	// granularity, rounded down to a whole number of blocks. A public
	// parameter — the scan's I/O shape is a function of it and the
	// partition size only.
	SegmentBytes int

	// FailoverAfter trips automatic failover for a partition after that
	// many consecutive failed epochs (0 disables). Every epoch sends every
	// partition a batch, so the epoch is the partition heartbeat and this
	// is the one place a partition is declared down. Like every timing and
	// threshold parameter in the system, it is public deployment
	// configuration — failover timing reveals only that a partition is
	// down, which the epoch schedule already makes public.
	FailoverAfter int
	// Failover is invoked, at most once in flight per partition, when a
	// partition trips the detector. It returns a replacement client
	// (typically a dialed standby, or a node freshly restored from
	// internal/persist sealed state) that serves the
	// partition from the next epoch on. Returning an error (or nil) leaves
	// the old client in place; the attempt is retried while the partition
	// keeps failing. The old client is passed so the hook can close it or
	// salvage state. Telemetry counts attempts (core_repairs_started_total),
	// successes (core_failovers_total) and, per success, the time from the
	// outage's first failed epoch (core_time_to_recovery).
	Failover FailoverFunc

	// JournalDir, when non-empty, makes the root load balancer itself
	// crash-tolerant: before every epoch's stage-B dispatch the system
	// durably journals the batches, the client→reply routing tables,
	// and the per-partition delivery tags to a sealed epoch journal
	// (internal/persist). On reopen — the same process restarting, or a
	// standby root promoted over the same directory — journaled-but-
	// incomplete epochs are replayed against the partitions under their
	// original (lbID, seq) tags, so partitions that already applied a batch
	// answer from their replay caches and the epoch commits exactly once.
	// The journal also pins the oblivious routing key (JournalDir/route.key)
	// so a successor routes and matches identically.
	JournalDir string
	// JournalRec, when non-nil, receives the journal's host-visible I/O
	// trace (offsets and lengths) — the leakage suite asserts it is
	// byte-identical across secret-differing workloads.
	JournalRec *trace.Recorder
	// ReplyWindow bounds the root's reply-dedupe window: the last that many
	// successfully answered idempotent request IDs are remembered so a
	// client retry of an already-answered request returns the original
	// result instead of re-executing. 0 picks 4096. Public configuration.
	ReplyWindow int

	// TestCrashPoint, when set, is consulted at named points of every epoch
	// Flush runs ("stage-a": after batching, before journaling; "journal":
	// after the journal commit, before dispatch; "dispatch": after
	// partitions executed, before any reply). Returning true simulates a
	// root crash at that point: the system stops silently — no replies, not
	// even for later epochs already in flight, no further epochs — exactly
	// as a killed process would. Epochs replayed from the journal consult
	// no hook. Test hook (internal/chaos).
	TestCrashPoint func(point string, epoch uint64) bool

	// Telemetry, when non-nil, records per-epoch stage spans (stage A
	// batching, per-partition stage B, stage C match/reply, the whole
	// epoch) and system counters, and is threaded into every component the
	// system builds (load balancers, local subORAMs, durable wrappers).
	// Every span tag is a public parameter: epoch number, partition index,
	// batch size α, request count R. Nil disables recording everywhere.
	Telemetry *telemetry.Registry

	// TestLBChoiceSeed, when non-zero, seeds the random client→load-balancer
	// assignment deterministically. That choice is public (paper §4.3:
	// clients randomly pick a load balancer, and the network adversary sees
	// which one each contacts); the leakage tests pin it so two runs differ
	// only in secrets. Production deployments leave it zero.
	TestLBChoiceSeed int64

	// routeKey pins the load balancers' partition-assignment key; set by
	// NewLocal when recovering a durable deployment so recovered objects
	// stay reachable at their original partitions.
	routeKey *crypt.Key
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 160
	}
	if c.NumLoadBalancers <= 0 {
		c.NumLoadBalancers = 1
	}
	if c.NumSubORAMs <= 0 {
		c.NumSubORAMs = 1
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

// FailoverFunc produces a replacement client for a partition whose
// consecutive-failure run tripped the detector (Config.FailoverAfter).
type FailoverFunc func(part int, old SubORAMClient) (SubORAMClient, error)

// HealthStats reports per-partition failure state, so operators (and the
// replication layer) can tell a transient blip from a dead partition.
type HealthStats struct {
	// ConsecutiveFailures[s] is the current run of epochs in which
	// partition s failed; it resets to zero on the first success.
	ConsecutiveFailures []int
	// TotalFailures[s] counts every epoch in which partition s failed.
	TotalFailures []uint64
	// Failovers[s] counts replacements promoted for partition s
	// (Config.Failover successes).
	Failovers []uint64
	// Repairing[s] reports a failover attempt currently in flight.
	Repairing []bool
	// JournalErrors counts completed epochs whose journal completion
	// (marker append or compaction) failed. The epoch was answered; the
	// cost is a redundant replay by a successor — and a journal that keeps
	// failing will fail the next epoch's Begin.
	JournalErrors uint64
}

// Healthy reports whether every partition is currently serving: no
// consecutive-failure run and no repair in flight. The chaos harness's
// convergence invariant checks this.
func (h HealthStats) Healthy() bool {
	for _, c := range h.ConsecutiveFailures {
		if c != 0 {
			return false
		}
	}
	for _, r := range h.Repairing {
		if r {
			return false
		}
	}
	return true
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
	depth    int              // epochs in flight bound (Config.PipelineDepth, ≥ 1)
	partQ    []chan *epochJob // per-partition FIFO job queues, cap depth
	bDone    chan *epochJob   // completed jobs, in epoch order
	seqDone  chan struct{}    // sequencer exited
	depthSem chan struct{}    // one token per epoch in flight
	workerWG sync.WaitGroup   // partition workers
	bOnce    sync.Once        // closes bDone exactly once
	// bGather/bIdx/bView are per-partition scratch for assembling the
	// live-batch slice handed to BatchAccessN; partition s is only ever
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
	ticker   *time.Ticker
	wg       sync.WaitGroup

	// Root fault-tolerance plane (Config.JournalDir). journal is the sealed
	// epoch journal; dispTags[s] (guarded by tagMu) is the delivery tag
	// partition s's next dispatch will travel under — journaled before the
	// dispatch so a successor can replay it verbatim. replyWin parks
	// successful results of idempotent requests; crashedCh is closed by a
	// simulated root crash (TestCrashPoint / Crash).
	journal   *persist.Journal
	jrec      persist.JournalEpoch // journalBegin's record, reused (epochMu)
	tagMu     sync.Mutex
	dispTags  []persist.JournalTag
	replyWin  *replyWindow
	crashedCh chan struct{}
	crashOne  sync.Once

	rng   *rand.Rand
	rngMu sync.Mutex

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

	// recovered reports whether any durable partition restored persisted
	// state at startup (Config.DataDir).
	recovered bool
	// owned holds durable partitions NewLocal created (memory-resident
	// Durable and disk-resident SegDurable alike), closed with the system.
	// Caller-provided partitions are never closed here.
	owned []io.Closer
}

// NewLocal creates a deployment whose subORAMs run in-process. With
// Config.DataDir set, each partition is wrapped for sealed durability and
// any state already in the directory is recovered before the system starts
// (no Init needed on reopen).
func NewLocal(cfg Config) (*System, error) {
	cfg.fillDefaults()
	if cfg.DataDir != "" {
		if err := checkPartitionCount(cfg.DataDir, cfg.NumSubORAMs); err != nil {
			return nil, err
		}
		key, err := persist.LoadOrCreateRoutingKey(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		cfg.routeKey = &key
	}
	if cfg.DiskResident && cfg.DataDir == "" {
		return nil, fmt.Errorf("core: DiskResident requires DataDir")
	}
	if cfg.DiskResident && cfg.Sealed {
		return nil, fmt.Errorf("core: DiskResident and Sealed are mutually exclusive")
	}
	subs := make([]SubORAMClient, cfg.NumSubORAMs)
	recovered := false
	for i := range subs {
		path := ""
		if cfg.DataDir != "" {
			path = filepath.Join(cfg.DataDir, fmt.Sprintf("part-%03d", i))
		}
		if cfg.DiskResident {
			sd, err := persist.NewSegDurable(path,
				func(ss *segstore.Store) persist.StorePartition {
					return suboram.New(suboram.Config{
						BlockSize: cfg.BlockSize,
						Workers:   cfg.SubORAMWorkers,
						Store:     ss,
						Telemetry: cfg.Telemetry,
					})
				},
				persist.SegConfig{
					BlockSize:     cfg.BlockSize,
					SegmentBlocks: cfg.SegmentBytes / cfg.BlockSize,
					Telemetry:     cfg.Telemetry,
				})
			if err != nil {
				return nil, fmt.Errorf("core: partition %d: %w", i, err)
			}
			recovered = recovered || sd.Recovered()
			subs[i] = sd
			continue
		}
		sub := suboram.New(suboram.Config{
			BlockSize: cfg.BlockSize,
			Workers:   cfg.SubORAMWorkers,
			Sealed:    cfg.Sealed,
			Telemetry: cfg.Telemetry,
		})
		if path == "" {
			subs[i] = sub
			continue
		}
		dur, err := persist.NewDurable(
			path, sub, persist.Config{BlockSize: cfg.BlockSize, Telemetry: cfg.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		recovered = recovered || dur.Recovered()
		subs[i] = dur
	}
	sys, err := NewWithSubORAMs(cfg, subs)
	if err != nil {
		return nil, err
	}
	sys.recovered = recovered
	for _, sub := range subs {
		switch dur := sub.(type) {
		case *persist.Durable:
			sys.owned = append(sys.owned, dur)
		case *persist.SegDurable:
			sys.owned = append(sys.owned, dur)
		}
	}
	return sys, nil
}

// checkPartitionCount rejects reopening a data directory with a different
// subORAM count: objects would be unreachable at their persisted partitions.
// A directory with no partitions yet (fresh deployment) passes.
func checkPartitionCount(dataDir string, want int) error {
	entries, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	have := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "part-") {
			have++
		}
	}
	if have != 0 && have != want {
		return fmt.Errorf("core: data dir %s holds %d partitions, configured %d", dataDir, have, want)
	}
	return nil
}

// NewWithSubORAMs creates a deployment over caller-provided partitions
// (e.g. remote subORAMs reached over a transport).
func NewWithSubORAMs(cfg Config, subs []SubORAMClient) (*System, error) {
	cfg.fillDefaults()
	if len(subs) == 0 {
		return nil, fmt.Errorf("core: need at least one subORAM")
	}
	cfg.NumSubORAMs = len(subs)
	if cfg.JournalDir != "" && cfg.routeKey == nil {
		// A successor root must route and match exactly like its
		// predecessor: pin the oblivious routing key in the journal
		// directory.
		key, err := persist.LoadOrCreateRoutingKey(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		cfg.routeKey = &key
	}
	var key crypt.Key
	if cfg.routeKey != nil {
		key = *cfg.routeKey
	} else {
		var err error
		key, err = crypt.NewKey()
		if err != nil {
			return nil, err
		}
	}
	lbSeed := time.Now().UnixNano()
	if cfg.TestLBChoiceSeed != 0 {
		lbSeed = cfg.TestLBChoiceSeed
	}
	sys := &System{
		cfg:    cfg,
		subs:   subs,
		closed: make(chan struct{}),
		rng:    rand.New(rand.NewSource(lbSeed)),
		health: HealthStats{
			ConsecutiveFailures: make([]int, len(subs)),
			TotalFailures:       make([]uint64, len(subs)),
			Failovers:           make([]uint64, len(subs)),
			Repairing:           make([]bool, len(subs)),
		},
		downSince: make([]int64, len(subs)),
		crashedCh: make(chan struct{}),
		replyWin:  newReplyWindow(cfg.ReplyWindow),

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
	cfg.Telemetry.Gauge("snoopy_config_suborams").Set(int64(cfg.NumSubORAMs))
	cfg.Telemetry.Gauge("snoopy_config_lambda").Set(int64(cfg.Lambda))
	cfg.Telemetry.Gauge("snoopy_config_block_bytes").Set(int64(cfg.BlockSize))
	lbCfg := loadbalancer.Config{
		BlockSize:   cfg.BlockSize,
		NumSubORAMs: cfg.NumSubORAMs,
		Lambda:      cfg.Lambda,
		SortWorkers: cfg.SortWorkers,
		Telemetry:   cfg.Telemetry,
	}
	for i := 0; i < cfg.NumLoadBalancers; i++ {
		sys.lbs = append(sys.lbs, &lbState{lb: loadbalancer.New(lbCfg, key)})
	}
	sys.depth = min(max(cfg.PipelineDepth, 1), maxPipelineDepth)
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
	if cfg.JournalDir != "" {
		j, incomplete, err := persist.OpenJournal(cfg.JournalDir, cfg.JournalRec, cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		sys.journal = j
		// Continue the predecessor's epoch sequence (a crashed, unjournaled
		// stage A's number is safely reused — it was never dispatched).
		sys.epoch = j.LastEpoch()
		sys.initDispTags()
		// Re-run a crashed predecessor's journaled-but-incomplete epochs, in
		// order, before the system serves.
		for _, je := range incomplete {
			sys.replayEpoch(je)
			je.Release()
		}
		sys.initDispTags()
	}
	if cfg.EpochDuration > 0 {
		sys.ticker = time.NewTicker(cfg.EpochDuration)
		sys.wg.Add(1)
		go func() {
			defer sys.wg.Done()
			for {
				select {
				case <-sys.closed:
					return
				case <-sys.ticker.C:
					sys.Flush()
				}
			}
		}()
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

// Close stops the epoch ticker and fails all pending requests.
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
	for _, dur := range sys.owned {
		dur.Close()
	}
	if sys.journal != nil {
		sys.journal.Close()
	}
}

// halt closes sys.closed — every Flush blocked on a pipeline slot, and the
// ticker loop, observe it — and stops the ticker, once.
func (sys *System) halt() {
	sys.closeOne.Do(func() {
		close(sys.closed)
		if sys.ticker != nil {
			sys.ticker.Stop()
		}
	})
}

// shutPipe closes the partition queues, once: nothing is dispatched after
// it, and the workers drain what already was. Caller holds epochMu.
func (sys *System) shutPipe() {
	if !sys.pipeOff {
		sys.pipeOff = true
		for _, q := range sys.partQ {
			close(q)
		}
	}
}

// lbEpoch is one load balancer's stage-A output for an epoch. perSub and
// dropped are copied out of the Batches so that stage B can release the
// batch storage to the arena as soon as the subORAMs are done with it,
// while stage C still has the numbers for stats.
type lbEpoch struct {
	// reqs is the plane's request snapshot; stage C matches the responses
	// against it.
	reqs    *store.Requests
	batches *loadbalancer.Batches
	err     error
	wall    time.Duration
	perSub  int
	dropped int
	// droppedKeys are the Theorem-3 overflow victims' keys (normally nil);
	// stage C fails exactly these requests with ErrOverflow.
	droppedKeys []uint64
}

// epochJob carries one epoch through the processing stages.
type epochJob struct {
	id     uint64
	t0     time.Time
	t0tel  int64 // telemetry-clock epoch start (whole-epoch span base)
	queues [][]pending
	eps    []lbEpoch
	denied [][]uint8
	aclErr error
	// replayed marks an epoch rebuilt from the journal (replayEpoch): its
	// batches and request snapshots belong to the JournalEpoch, and it
	// consults no crash hook.
	replayed bool

	responses [][]*store.Requests // [lb][sub]
	subWall   []time.Duration
	subErr    []error
	// subUsed[s] is the client that served partition s this epoch (the
	// snapshot repair needs as its "old" argument — the table may have
	// been swapped by the time accounting runs).
	subUsed []SubORAMClient

	// bLeft counts partitions still executing stage B; the worker that
	// takes it to zero hands the job to the sequencer. Completions reach
	// the sequencer in epoch order because every partition drains its queue
	// FIFO: job N+1 cannot complete anywhere before every partition
	// finished job N.
	bLeft atomic.Int32
}

// maxPipelineDepth caps Config.PipelineDepth, input from outside the
// program: every epoch in flight holds its arena working set.
const maxPipelineDepth = 16

// Flush runs one epoch: stage A (snapshot + batching) under epochMu, the
// journal, then dispatch to the partition workers; the sequencer finishes
// stage B and runs stage C. Stages overlap across epochs exactly as the
// paper's throughput equation assumes — stage A of epoch N+1 runs while
// the workers scan epoch N and stage C matches epoch N−1 — up to
// PipelineDepth epochs in flight. Flush returns once at most depth−1
// epochs remain in flight (or the system closes): at depth 1, after its
// own epoch has replied.
func (sys *System) Flush() {
	select {
	case <-sys.crashedCh:
		// A crashed root does nothing — silently, like a killed process.
		return
	default:
	}
	sys.epochMu.Lock()
	job := sys.stageA()
	if sys.crashAt("stage-a", job) {
		return
	}
	// The epoch's pipeline slot, taken before the journal so a journaled
	// epoch is always dispatched. Waiting for it is the engine's
	// backpressure; the wait selects on closed, so a Flush blocked behind a
	// wedged partition cannot hold Close hostage. Once Close has shut the
	// partition queues nothing would execute the job: either way every
	// snapshotted request gets ErrClosed instead of never completing.
	if sys.pipeOff || !sys.acquire() {
		sys.epochMu.Unlock()
		sys.failJob(job, ErrClosed)
		return
	}
	// Journal-before-dispatch: once Begin returns, the epoch either
	// completes here or is replayed by a successor. A Begin failure means
	// the epoch was never acknowledged — failing it without dispatch keeps
	// "not journaled ⇒ never applied" true, so clients can safely retry as
	// fresh requests.
	if err := sys.journalBegin(job); err != nil {
		<-sys.depthSem
		sys.epochMu.Unlock()
		sys.failJob(job, err)
		return
	}
	if sys.crashAt("journal", job) {
		<-sys.depthSem
		return
	}
	sys.dispatch(job)
	sys.epochMu.Unlock()
	sys.settle(sys.depth - 1)
}

// acquire takes a pipeline slot, or reports false once the system closes
// (a crash closes it too).
func (sys *System) acquire() bool {
	select {
	case sys.depthSem <- struct{}{}:
		return true
	case <-sys.closed:
		return false
	}
}

// settle blocks until at most n epochs are in flight, or the system closes
// or crashes: it takes every slot above n and hands them straight back.
func (sys *System) settle(n int) {
	held := 0
	for held < sys.depth-n && sys.acquire() {
		held++
	}
	for ; held > 0; held-- {
		<-sys.depthSem
	}
}

// dispatch hands the job to every partition worker. Caller holds epochMu,
// so queue order is epoch order. The sends cannot block indefinitely: at
// most depth jobs hold slots, matching the queues' capacity.
func (sys *System) dispatch(job *epochJob) {
	for s := range sys.partQ {
		sys.partQ[s] <- job
	}
}

// failJob replies err to every request of a job that will never reach
// stage C — nothing once the root has crashed, since a dead process answers
// nothing — and returns the job's pooled storage to the arena.
func (sys *System) failJob(job *epochJob, err error) {
	if !sys.Crashed() {
		for _, q := range job.queues {
			for _, p := range q {
				p.ch <- result{err: err}
			}
		}
	}
	for i := range job.eps {
		job.release(i)
	}
}

// releaseBatches returns plane i's batch storage to the arena once no
// partition reads it any more.
func (job *epochJob) releaseBatches(i int) {
	if !job.replayed {
		job.eps[i].batches.Release()
	}
	job.eps[i].batches = nil
}

// release returns all of plane i's pooled storage — batches, request
// snapshot, partition responses — to the arena. A replayed epoch's batches
// and snapshot are only dropped: they belong to its JournalEpoch
// (je.Release), not the arena.
func (job *epochJob) release(i int) {
	job.releaseBatches(i)
	if !job.replayed {
		arena.Default.PutRequests(job.eps[i].reqs)
	}
	job.eps[i].reqs = nil
	for s, r := range job.responses[i] {
		arena.Default.PutRequests(r)
		job.responses[i][s] = nil
	}
}

// partitionWorker drains partition s's job queue in FIFO (= epoch) order.
// The worker that finishes a job's last partition hands it to the
// sequencer. Long-lived workers replace the per-epoch goroutine fan-out —
// the stage-B pool is bounded by S for the life of the system.
func (sys *System) partitionWorker(s int) {
	defer sys.workerWG.Done()
	for job := range sys.partQ[s] {
		sys.partStageB(job, s)
		if job.bLeft.Add(-1) == 0 {
			sys.bDone <- job
		}
	}
}

// sequencer runs the epoch-ordered completion work of every epoch: the
// "dispatch" crash hook, health/failover accounting (consecutive-failure
// runs are only well defined in epoch order), batch release and stage C.
// Stage C runs inline: it overlaps the workers' stage B of the next epoch
// and stage A of the one after, never another stage C. The epoch's slot is
// freed last, once every reply is out.
func (sys *System) sequencer() {
	defer close(sys.seqDone)
	for job := range sys.bDone {
		if sys.Crashed() || sys.crashAfterDispatch(job) {
			// A dead root answers nothing: neither this epoch nor the later
			// ones still in flight.
			sys.failJob(job, ErrRootDown)
		} else {
			sys.finishStageB(job)
			sys.stageC(job)
		}
		<-sys.depthSem
	}
}

// newJob allocates epoch id's per-plane and per-partition slots; stage A
// (or a journal replay) fills in the queues, batches and ACL outcome.
func (sys *System) newJob(id uint64) *epochJob {
	L, S := len(sys.lbs), len(sys.subs)
	job := &epochJob{
		id: id, t0: time.Now(), t0tel: sys.cfg.Telemetry.Now(),
		queues: make([][]pending, L), eps: make([]lbEpoch, L),
		responses: make([][]*store.Requests, L),
		subWall:   make([]time.Duration, S),
		subErr:    make([]error, S),
		subUsed:   make([]SubORAMClient, S),
	}
	for i := range job.responses {
		job.responses[i] = make([]*store.Requests, S)
	}
	job.bLeft.Store(int32(S))
	return job
}

// stageAPlane builds plane i's batches from its snapshotted queue.
func (sys *System) stageAPlane(job *epochJob, i int) {
	t := time.Now()
	ta0 := sys.cfg.Telemetry.Now()
	q := job.queues[i]
	reqs := arena.Default.GetRequests(len(q), sys.cfg.BlockSize)
	for j, p := range q {
		reqs.SetRow(j, p.Op, p.Key, 0, uint64(j), uint64(j), p.Value)
	}
	b, err := sys.lbs[i].lb.MakeBatches(reqs)
	ep := lbEpoch{reqs: reqs, batches: b, err: err, wall: time.Since(t)}
	if b != nil {
		ep.perSub, ep.dropped, ep.droppedKeys = b.PerSub, b.Dropped, b.DroppedKeys
	}
	job.eps[i] = ep
	// One span per (epoch, load balancer), tagged with the public
	// per-subORAM batch size α — fires on error paths too.
	sys.stStageA.Record(job.id, i, ep.perSub, ta0, sys.cfg.Telemetry.Now())
}

// stageA snapshots the queues, resolves ACL permissions, and builds every
// load balancer's batches. Caller holds epochMu.
func (sys *System) stageA() *epochJob {
	sys.epoch++
	job := sys.newJob(sys.epoch)
	for i, st := range sys.lbs {
		st.mu.Lock()
		job.queues[i] = st.queue
		st.queue = nil
		st.mu.Unlock()
	}

	// With access control enabled, resolve permissions first through the
	// recursive ACL instance (paper §D: two epochs per operation).
	job.denied, job.aclErr = sys.applyACL(job.queues)

	// A single-plane deployment batches inline: spawning a goroutine per
	// epoch buys nothing and costs a schedule round trip on small epochs.
	if len(sys.lbs) == 1 {
		sys.stageAPlane(job, 0)
	} else {
		var wg sync.WaitGroup
		for i := range sys.lbs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys.stageAPlane(job, i)
			}()
		}
		wg.Wait()
	}
	return job
}

// partStageB executes one partition's share of an epoch: the L batches in
// fixed load-balancer order (the order linearizability's last-write-wins
// depends on). Invoked only from partition s's worker, so per-partition
// epoch order is the queue order and the scratch slot needs no lock.
//
// A failed partition does not fail the epoch: its error is recorded with
// its partition index (and counted in HealthStats), and stage C fails only
// the requests routed to it — the system degrades per partition and
// survives to the next epoch.
func (sys *System) partStageB(job *epochJob, s int) {
	sys.subsMu.RLock()
	sub := sys.subs[s]
	sys.subsMu.RUnlock()
	job.subUsed[s] = sub
	t := time.Now()
	tb0 := sys.cfg.Telemetry.Now()
	rows := 0
	// Record wall time on every exit: a failed partition's (often
	// deadline-length) stall is real epoch time, and reporting zero
	// would skew EpochStats exactly when latency matters most. The
	// span fires once per (epoch, partition) on every exit path,
	// tagged with the public row count Σα over load balancers.
	defer func() {
		job.subWall[s] = time.Since(t)
		sys.stStageB.Record(job.id, s, rows, tb0, sys.cfg.Telemetry.Now())
	}()
	gather := sys.bGather[s][:0]
	idxs := sys.bIdx[s][:0]
	for i := range job.eps {
		if job.eps[i].err != nil || job.eps[i].batches == nil {
			continue
		}
		v := &sys.bView[s][len(idxs)]
		job.eps[i].batches.ForInto(v, s)
		gather = append(gather, v)
		idxs = append(idxs, i)
	}
	if len(gather) == 0 {
		return
	}
	// Grouped path: one exchange (and, remotely, one AEAD seal and one
	// round trip) for the whole epoch instead of one per load balancer.
	// All-or-nothing per partition, which matches the error granularity
	// stage C already applies. Every epoch therefore consumes exactly one
	// delivery tag per tagged partition — the prediction journalBegin
	// records and a successor replays.
	if bn, ok := sub.(BatchedSubORAMClient); ok {
		outs, err := bn.BatchAccessN(gather)
		if err != nil {
			job.subErr[s] = fmt.Errorf("suboram %d: %w", s, err)
			return
		}
		for k, i := range idxs {
			rows += job.eps[i].perSub
			job.responses[i][s] = outs[k]
			if err := checkResponse(s, outs[k], job.eps[i].perSub); err != nil {
				job.subErr[s] = err
			}
		}
		return
	}
	for k, i := range idxs {
		out, err := sub.BatchAccess(gather[k])
		if err != nil {
			job.subErr[s] = fmt.Errorf("suboram %d: %w", s, err)
			return
		}
		rows += job.eps[i].perSub
		job.responses[i][s] = out
		if err := checkResponse(s, out, job.eps[i].perSub); err != nil {
			job.subErr[s] = err
			return
		}
	}
}

// checkResponse rejects a response set that does not answer its α-row batch
// row for row: stage C gives every partition exactly α rows of the response
// set.
func checkResponse(s int, out *store.Requests, alpha int) error {
	if out == nil || out.Len() != alpha {
		return fmt.Errorf("suboram %d: response is not the %d rows of its batch", s, alpha)
	}
	return nil
}

// gatherResponses lays one plane's partition responses out in exactly α·S
// rows, partition s in rows [s·α, (s+1)·α): MatchResponses reads each
// partition's order stamp at s·α. A failed partition — which one is already
// public — contributes α blank rows in key order, under dummy keys no
// request carries, so the epoch's shape does not depend on the failure. The
// caller releases the result to arena.Default.
func gatherResponses(resp []*store.Requests, subErr []error, alpha, blockSize int) *store.Requests {
	all := arena.Default.GetRequests(alpha*len(resp), blockSize)
	for s, r := range resp {
		if subErr[s] == nil && r != nil {
			all.CopyRowsPlain(s*alpha, r)
			continue
		}
		blank := all.View(s*alpha, (s+1)*alpha)
		for j := range blank.Key {
			blank.Key[j] = store.DummyKeyBit | uint64(s)<<32 | uint64(j)
		}
		blank.StampKeyOrder()
	}
	return all
}

// finishStageB runs the epoch-completion work that must happen in epoch
// order once every partition finished: health/failover accounting and the
// batch release back to the arena. This is the system's one partition
// failure detector: the epoch is the heartbeat, and a partition whose
// consecutive-failure run reaches Config.FailoverAfter trips automatic
// failover — one repair attempt at a time, retried each further failing
// epoch until a replacement is promoted.
func (sys *System) finishStageB(job *epochJob) {
	sys.statsMu.Lock()
	for s := range job.subErr {
		if job.subErr[s] != nil {
			if sys.health.ConsecutiveFailures[s] == 0 {
				sys.downSince[s] = sys.cfg.Telemetry.Now()
			}
			sys.health.ConsecutiveFailures[s]++
			sys.health.TotalFailures[s]++
			sys.telPartFails.Inc()
			if sys.cfg.FailoverAfter > 0 && sys.cfg.Failover != nil &&
				sys.health.ConsecutiveFailures[s] >= sys.cfg.FailoverAfter &&
				!sys.health.Repairing[s] {
				sys.health.Repairing[s] = true
				sys.telRepairs.Inc()
				sys.repairWG.Add(1)
				go sys.repair(s, job.subUsed[s])
			}
		} else {
			sys.health.ConsecutiveFailures[s] = 0
		}
	}
	sys.statsMu.Unlock()
	// Every subORAM is done with its views of the batch storage: return it
	// to the arena now, before stage C (overlapping the next epoch's stage
	// B) runs. Stage C reads the copied perSub/dropped fields, never the
	// Batches.
	for i := range job.eps {
		job.releaseBatches(i)
	}
}

// stageC matches responses, replies to clients, and records stats.
func (sys *System) stageC(job *epochJob) {
	L := len(sys.lbs)
	matchWall := make([]time.Duration, L)
	if L == 1 {
		sys.stageCPlane(job, 0, matchWall)
	} else {
		var wg sync.WaitGroup
		for i := range sys.lbs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys.stageCPlane(job, i, matchWall)
			}()
		}
		wg.Wait()
	}

	// Every reply for this epoch has been issued (and parked): the journal
	// no longer needs to replay it. Stats come last, so an epoch published
	// in LastEpochStats is also complete in the journal.
	sys.journalComplete(job.id)
	sys.stageCStats(job, matchWall)
}

// stageCPlane matches one plane's responses and replies to its clients.
// Overflow victims get ErrOverflow, requests routed to a failed partition
// that partition's error.
func (sys *System) stageCPlane(job *epochJob, i int, matchWall []time.Duration) {
	S := len(sys.subs)
	t := time.Now()
	tc0 := sys.cfg.Telemetry.Now()
	q := job.queues[i]
	ep := &job.eps[i]
	// One span per (epoch, load balancer) on every exit path, tagged
	// with the public per-plane request count.
	defer func() {
		matchWall[i] = time.Since(t)
		sys.stStageC.Record(job.id, i, len(q), tc0, sys.cfg.Telemetry.Now())
	}()
	// Whatever path this epoch takes, its pooled request snapshot and
	// subORAM responses go back to the arena at the end.
	defer job.release(i)
	if len(q) == 0 {
		return
	}
	fail := func(err error) {
		for _, p := range q {
			p.ch <- result{err: err}
		}
	}
	if job.aclErr != nil {
		fail(job.aclErr)
		return
	}
	if ep.err != nil {
		fail(ep.err)
		return
	}
	// Graceful degradation: responses from healthy partitions are
	// matched normally; requests routed to failed partitions get
	// that partition's (index-tagged) error. Every reply — value or
	// error — leaves at match completion, so reply traffic keeps
	// its uniform timing regardless of which partitions failed.
	anyErr := false
	for s := 0; s < S; s++ {
		anyErr = anyErr || job.subErr[s] != nil
	}
	all := gatherResponses(job.responses[i], job.subErr, ep.perSub, sys.cfg.BlockSize)
	matched, err := sys.lbs[i].lb.MatchResponses(all, ep.reqs)
	arena.Default.PutRequests(all)
	if err != nil {
		fail(err)
		return
	}
	var droppedSet map[uint64]struct{}
	if len(ep.droppedKeys) > 0 {
		droppedSet = make(map[uint64]struct{}, len(ep.droppedKeys))
		for _, k := range ep.droppedKeys {
			droppedSet[k] = struct{}{}
		}
	}
	answered := make([]bool, len(q))
	for j := 0; j < matched.Len(); j++ {
		idx := matched.Client[j]
		p := q[idx]
		answered[idx] = true
		if anyErr {
			if serr := job.subErr[sys.lbs[i].lb.SubORAMFor(matched.Key[j])]; serr != nil {
				p.ch <- result{err: serr}
				continue
			}
		}
		if droppedSet != nil {
			if _, dropped := droppedSet[matched.Key[j]]; dropped {
				p.ch <- result{err: ErrOverflow}
				continue
			}
		}
		val := append([]byte(nil), matched.Block(j)...)
		found := matched.Aux[j]
		if job.denied != nil && job.denied[i] != nil {
			nullDenied(val, &found, job.denied[i][idx])
		}
		r := result{value: val, found: found == 1}
		// Park the answer for idempotent retries before delivering it: a
		// client that saw this root crash a moment later re-asks with the
		// same ID and gets the original result instead of a re-execution.
		sys.replyWin.put(p.ID, r)
		p.ch <- r
	}
	arena.Default.PutRequests(matched)
	// Liveness backstop: no queued request may ever be left without a
	// reply, whatever path the epoch took.
	for idx := range answered {
		if !answered[idx] {
			q[idx].ch <- result{err: ErrOverflow}
		}
	}
}

// stageCStats folds the completed epoch into EpochStats and whole-epoch
// telemetry. The sequencer completes epochs in order; the ordering guards
// below keep a published epoch from ever moving backwards regardless.
func (sys *System) stageCStats(job *epochJob, matchWall []time.Duration) {
	st := EpochStats{Epoch: job.id, Wall: time.Since(job.t0)}
	for _, q := range job.queues {
		st.Requests += len(q)
	}
	for i := range sys.lbs {
		if job.eps[i].err == nil {
			if job.eps[i].perSub > st.BatchSize {
				st.BatchSize = job.eps[i].perSub
			}
			st.Dropped += job.eps[i].dropped
		}
		lbStats := sys.lbs[i].lb.LastStats()
		if lbStats.MakeBatch > st.MakeBatch {
			st.MakeBatch = lbStats.MakeBatch
		}
		if lbStats.Match > st.Match {
			st.Match = lbStats.Match
		}
		st.LBWall = append(st.LBWall, job.eps[i].wall)
	}
	for s := range sys.subs {
		if job.subWall[s] > st.SubORAM {
			st.SubORAM = job.subWall[s]
		}
		st.SubORAMWall = append(st.SubORAMWall, job.subWall[s])
	}
	sys.statsMu.Lock()
	sys.totalDrops += uint64(st.Dropped)
	if st.Epoch >= sys.lastEp.Epoch {
		sys.lastEp = st
	}
	sys.statsMu.Unlock()

	// Whole-epoch telemetry: fires exactly once per epoch, unconditionally.
	// R (the real request count) is public — the adversary sees every client
	// message arrive — and the overflow count is already in EpochStats.
	// SetMax applies the same ordering guard as lastEp above: a
	// late-finishing older epoch's concurrent stage C must not roll the
	// gauge backwards, while its trace event still fires (the event stream
	// stays a function of the recorded epochs, not of the schedule).
	sys.telEpoch.SetMax(int64(job.id))
	sys.telRequests.Add(uint64(st.Requests))
	sys.telOverflow.Add(uint64(st.Dropped))
	sys.stEpoch.Record(job.id, -1, st.Requests, job.t0tel, sys.cfg.Telemetry.Now())
}

// snapshotSubs returns a stable view of the partition clients for one
// epoch (or Init): repair may swap an element concurrently, and a batch
// must go entirely to one client.
func (sys *System) snapshotSubs() []SubORAMClient {
	sys.subsMu.RLock()
	defer sys.subsMu.RUnlock()
	return append([]SubORAMClient(nil), sys.subs...)
}

// repair runs one failover attempt for partition s. On success the
// replacement client serves the partition from the next dispatched epoch;
// on failure the Repairing flag clears so a later failing epoch retries.
func (sys *System) repair(s int, old SubORAMClient) {
	defer sys.repairWG.Done()
	repl, err := sys.cfg.Failover(s, old)
	if err != nil || repl == nil {
		sys.statsMu.Lock()
		sys.health.Repairing[s] = false
		sys.statsMu.Unlock()
		return
	}
	sys.subsMu.Lock()
	sys.subs[s] = repl
	sys.subsMu.Unlock()
	if sys.journal != nil {
		// The replacement has its own delivery stream; re-predict the tag
		// the next journaled dispatch to s will travel under. A journaled
		// epoch already in flight across this swap degrades to
		// at-least-once for partition s (fresh client, fresh replay cache)
		// — see the package comment in journal.go.
		sys.tagMu.Lock()
		sys.dispTags[s] = tagOf(repl)
		sys.tagMu.Unlock()
	}
	sys.statsMu.Lock()
	sys.telFailovers.Inc()
	sys.telRecovery.Observe(time.Duration(sys.cfg.Telemetry.Now() - sys.downSince[s]))
	sys.health.ConsecutiveFailures[s] = 0
	sys.health.Failovers[s]++
	sys.health.Repairing[s] = false
	sys.statsMu.Unlock()
}

// LastEpochStats returns statistics for the most recent completed epoch.
func (sys *System) LastEpochStats() EpochStats {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return sys.lastEp
}

// Health returns per-partition failure counters. A partition with a
// growing ConsecutiveFailures run is down (its requests fail with a
// partition-tagged error each epoch while the rest of the system keeps
// serving); the paper's answer at that point is replication
// (internal/replica) or operator intervention.
func (sys *System) Health() HealthStats {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return HealthStats{
		ConsecutiveFailures: append([]int(nil), sys.health.ConsecutiveFailures...),
		TotalFailures:       append([]uint64(nil), sys.health.TotalFailures...),
		Failovers:           append([]uint64(nil), sys.health.Failovers...),
		Repairing:           append([]bool(nil), sys.health.Repairing...),
		JournalErrors:       sys.health.JournalErrors,
	}
}

// TotalDropped returns the cumulative count of requests dropped by batch
// overflow across all epochs (the Theorem-3 negligible event; expect 0).
func (sys *System) TotalDropped() uint64 {
	sys.statsMu.Lock()
	defer sys.statsMu.Unlock()
	return sys.totalDrops
}

// Recovered reports whether the deployment restored partition state from
// Config.DataDir at startup (in which case Init is not needed).
func (sys *System) Recovered() bool { return sys.recovered }

// NumSubORAMs returns S.
func (sys *System) NumSubORAMs() int { return len(sys.subs) }

// NumLoadBalancers returns L.
func (sys *System) NumLoadBalancers() int { return len(sys.lbs) }

// SubORAMFor returns the partition storing id (the oblivious routing is
// shared across planes).
func (sys *System) SubORAMFor(id uint64) int { return sys.lbs[0].lb.SubORAMFor(id) }

// BlockSize returns the configured value size.
func (sys *System) BlockSize() int { return sys.cfg.BlockSize }
