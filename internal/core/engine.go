// The epoch engine: Flush and the tick loop, stage A batching, the
// per-partition stage-B workers and their dispatch, the epoch-ordered
// sequencer, and stage C matching and replies.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/store"
)

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

// lbEpoch is one load balancer's stage-A output for an epoch. The match
// data, perSub and dropped are taken out of the Batches so that stage B can
// release the batch storage to the arena as soon as the subORAMs are done
// with it, while stage C still has them.
type lbEpoch struct {
	// reqs is the plane's request snapshot (what the journal records).
	reqs    *store.Requests
	batches *loadbalancer.Batches
	// match is the sorted request metadata stage C matches the responses
	// against, and the keys the batches were stamped with.
	match   *loadbalancer.Match
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
	// replayed marks an epoch re-run from the journal (replayEpoch): it
	// consults no crash hook.
	replayed bool
	// flushed closes once the epoch replied or failed; on a ticked engine
	// the Flush calls waiting for its tick hold it (stageA).
	flushed chan struct{}

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

// tickerDepth is D for an engine driven by Config.Ticks: the paper's
// load-balancer/subORAM overlap, two epochs in flight. A Flush-driven
// engine runs one.
const tickerDepth = 2

// Flush, on an engine without Config.Ticks, runs one epoch and returns once
// it has replied (or the system closes). On a ticked engine it starts
// nothing: it returns once the next epoch a tick runs — the first whose
// stage A begins after the call — has replied, so every request submitted
// before the call is answered, or once the system closes or crashes.
func (sys *System) Flush() {
	if sys.cfg.Ticks == nil {
		sys.runEpoch()
		return
	}
	sys.epochMu.Lock()
	next := sys.nextFlush
	sys.epochMu.Unlock()
	select {
	case <-next:
	case <-sys.closed:
	}
}

// tickLoop runs one epoch per tick until the system closes.
func (sys *System) tickLoop() {
	defer sys.wg.Done()
	for {
		select {
		case <-sys.closed:
			return
		case <-sys.cfg.Ticks:
			sys.runEpoch()
		}
	}
}

// runEpoch runs one epoch: stage A (snapshot + batching) under epochMu, the
// journal, then dispatch to the partition workers; the sequencer finishes
// stage B and runs stage C. Stages overlap across epochs exactly as the
// paper's throughput equation assumes — stage A of epoch N+1 runs while
// the workers scan epoch N and stage C matches epoch N−1 — up to D epochs
// in flight. It returns once at most D−1 epochs remain in flight (or the
// system closes): at D = 1, after its own epoch has replied.
func (sys *System) runEpoch() {
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
	// backpressure; the wait selects on closed, so an epoch blocked behind a
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
	close(job.flushed)
}

// releaseBatches returns plane i's batch storage to the arena once no
// partition reads it any more.
func (job *epochJob) releaseBatches(i int) {
	job.eps[i].batches.Release()
	job.eps[i].batches = nil
}

// release returns all of plane i's pooled storage — batches, match data,
// request snapshot, partition responses — to the arena.
func (job *epochJob) release(i int) {
	job.releaseBatches(i)
	job.eps[i].match.Release()
	job.eps[i].match = nil
	arena.Default.PutRequests(job.eps[i].reqs)
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
			close(job.flushed)
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
		flushed:   make(chan struct{}),
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

// stageAPlane builds plane i's batches from its snapshotted queue — a pure
// function of the queue, the routing key, the table-key secret, the epoch
// number, S, λ and the block size, which journal replay relies on.
func (sys *System) stageAPlane(job *epochJob, i int) {
	t := time.Now()
	ta0 := sys.cfg.Telemetry.Now()
	q := job.queues[i]
	reqs := arena.Default.GetRequests(len(q), sys.cfg.BlockSize)
	for j, p := range q {
		reqs.SetRow(j, p.Op, p.Key, 0, uint64(j), uint64(j), p.Value)
	}
	b, err := sys.lbs[i].lb.MakeEpochBatches(reqs, sys.tableSecret, i, job.id)
	ep := lbEpoch{reqs: reqs, batches: b, err: err, wall: time.Since(t)}
	if b != nil {
		ep.match, b.Match = b.Match, nil
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
	// The Flush calls made so far wait for this epoch, which snapshots every
	// request submitted before them; later ones wait for the next.
	job.flushed, sys.nextFlush = sys.nextFlush, job.flushed
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
// depends on), as one delivery. Invoked only from partition s's worker, so
// per-partition epoch order is the queue order and the scratch slot needs
// no lock.
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
	// Epoch E travels as (stream, E) on whichever client serves s, and a
	// journaled root's every incarnation shares the stream: a partition
	// that already applied the delivery answers from its delivery window.
	outs, err := sub.Deliver(store.DeliveryTag{Stream: sys.stream, Epoch: job.id}, gather)
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
// rows, partition s in rows [s·α, (s+1)·α). A failed partition — which one
// is already public — contributes α blank rows under dummy keys no request
// carries and the key its batch was sent with, so the epoch's shape does not
// depend on the failure. The caller releases the result to arena.Default.
func gatherResponses(resp []*store.Requests, subErr []error, alpha, blockSize int, m *loadbalancer.Match) *store.Requests {
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
		blank.StampKey(m.Key(s))
	}
	return all
}

// finishStageB runs the epoch-completion work that must happen in epoch
// order once every partition finished: health/failover accounting and the
// batch release back to the arena.
func (sys *System) finishStageB(job *epochJob) {
	sys.detect(job)
	// Every subORAM is done with its views of the batch storage: return it
	// to the arena now, before stage C (overlapping the next epoch's stage
	// B) runs. Stage C reads the match data and the copied perSub/dropped
	// fields, never the Batches.
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
	// no longer needs to replay it — unless the root died meanwhile. A dead
	// root completes nothing: a client whose wait already returned
	// ErrRootDown retries, and only the successor's replay of the still-open
	// epoch answers that retry without applying it twice. Stats come last,
	// so an epoch published in LastEpochStats is also complete in the
	// journal.
	if !sys.Crashed() {
		sys.journalComplete(job.id)
	}
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
	all := gatherResponses(job.responses[i], job.subErr, ep.perSub, sys.cfg.BlockSize, ep.match)
	matched, err := sys.lbs[i].lb.Match(ep.match, all)
	ep.match = nil
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
