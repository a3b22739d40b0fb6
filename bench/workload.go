package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"snoopy"
)

const (
	blockSize    = 160 // the paper's object size
	warmupEpochs = 16
	// windows is how many equal stretches a measured pass is cut into. A
	// window's statistic counts everything that happened in it. The host only
	// ever slows the program down, for seconds at a time, so an end-to-end
	// metric is the quartile of the windows' statistics on the undisturbed
	// side (quiet, throughput): what the program does in every window moves
	// every window and so the quartile, what a neighbour does to fewer than
	// three quarters of them does not. The median over the windows, which
	// checks and per-layer metrics keep (over), follows the neighbour as
	// soon as he is busy for half a run.
	windows = 10
	// latSamples is how many operations per closed-loop epoch get their own
	// latency timed; timing all 4096 of batch_heavy would cost more than the
	// submit path it measures.
	latSamples = 64
)

// spec is one workload: a deployment shape plus a traffic shape. Only
// public-API knobs of the plain path appear here.
type spec struct {
	name, why string
	subORAMs  int
	objects   int
	perEpoch  int // R: operations per closed-loop epoch (and per warm-up epoch)
	zipf      bool
	writeFrac float64
	remote    bool          // subORAMs are snoopy-server children, root journals
	epoch     time.Duration // > 0: open loop against the engine's own ticker
	rate      float64       // open loop: offered operations per second
	ladder    []float64     // open loop, traced run: informational rate ladder
}

func (sp spec) open() bool { return sp.epoch > 0 }

func (sp spec) loop() string {
	if sp.open() {
		return fmt.Sprintf("open loop, Poisson %.0f ops/s, 1 dispatcher + 1 collector, engine ticker %v", sp.rate, sp.epoch)
	}
	return fmt.Sprintf("closed loop, 1 batch submitter, %d ops/epoch, manual Flush", sp.perEpoch)
}

func (sp spec) shape() string {
	keys := "uniform"
	if sp.zipf {
		keys = "Zipf(1.1)"
	}
	where := "in-process"
	if sp.remote {
		where = "root with journal + snoopy-server -data child on loopback TCP"
	}
	return fmt.Sprintf("%s, L=1 S=%d N=%d x %d B, %s keys, %.0f%% writes",
		where, sp.subORAMs, sp.objects, blockSize, keys, 100*sp.writeFrac)
}

// specs returns the four workloads. tiny shrinks every shape so the smoke
// test runs them all in seconds; the names and code paths are the same.
func specs(tiny bool) []spec {
	s := []spec{
		{name: "scan_heavy", subORAMs: 2, objects: 1 << 16, perEpoch: 128, writeFrac: 0.5,
			why: "10 MiB of objects, 128 ops/epoch: the subORAM linear scan is nearly the whole epoch"},
		{name: "batch_heavy", subORAMs: 4, objects: 1 << 11, perEpoch: 2048, zipf: true, writeFrac: 0.5,
			why: "2048 duplicate-heavy ops/epoch over 2048 objects: sort, dedupe, hash build and submit/reply dominate"},
		{name: "remote_durable", subORAMs: 1, objects: 1 << 13, perEpoch: 512, writeFrac: 0.9, remote: true,
			why: "the only workload where transport, wirecode, sealing, partition WAL and root journal fsync do work"},
		{name: "open_mixed", subORAMs: 2, objects: 1 << 12, perEpoch: 120, zipf: true, writeFrac: 0.5,
			epoch: 100 * time.Millisecond, rate: 1200, ladder: []float64{2400, 3600, 4800, 6000, 7200},
			why: "Poisson arrivals against the engine's own 100 ms ticker: what a client feels, queue wait plus epoch"},
	}
	if tiny {
		for i := range s {
			s[i].objects, s[i].perEpoch = 256, 32
			if s[i].open() {
				s[i].epoch, s[i].rate, s[i].ladder = 10*time.Millisecond, 1000, []float64{1500, 2000}
			}
		}
	}
	return s
}

func specByName(name string, tiny bool) (spec, bool) {
	for _, sp := range specs(tiny) {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// The open loop's latency limit: p99 within five epochs, correct replies to
// at least 0.99 of the operations offered, and the last reply no later than
// five epochs after the last operation was due (no growing backlog).
const (
	limitEpochs  = 5
	limitGoodput = 0.99
)

type op struct {
	key   uint64
	write bool
}

// genOps draws n operations from the workload's key and write mix. The
// store never sees the generator, only the operations.
func genOps(rng *rand.Rand, sp spec, n int) []op {
	var zipf *rand.Zipf
	if sp.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(sp.objects-1))
	}
	ops := make([]op, n)
	for i := range ops {
		if zipf != nil {
			ops[i].key = zipf.Uint64()
		} else {
			ops[i].key = uint64(rng.Intn(sp.objects))
		}
		ops[i].write = rng.Float64() < sp.writeFrac
	}
	return ops
}

// initialData is the loaded object set: keys 0..n-1, each holding its
// sequence-0 value.
func initialData(n int) (ids []uint64, data []byte) {
	ids = make([]uint64, n)
	data = make([]byte, n*blockSize)
	for i := range ids {
		ids[i] = uint64(i)
		fillValue(data[i*blockSize:(i+1)*blockSize], uint64(i), 0)
	}
	return ids, data
}

// series is a sample tagged with the window (tenth of the pass) each value
// fell in.
type series struct {
	v []float64
	w []uint8
}

func (s *series) add(w int, v float64) {
	s.v = append(s.v, v)
	s.w = append(s.w, uint8(w))
}

// perWindow is each window's own p-th percentile, for the windows that hold
// samples.
func (s *series) perWindow(p float64) []float64 {
	var per [windows][]float64
	for i, v := range s.v {
		per[s.w[i]] = append(per[s.w[i]], v)
	}
	var stat []float64
	for _, v := range per {
		if len(v) > 0 {
			stat = append(stat, percentile(v, p))
		}
	}
	return stat
}

// over is the median over the windows of each window's p-th percentile.
func (s *series) over(p float64) float64 { return median(s.perWindow(p)) }

// quiet is the lower quartile over the windows of each window's p-th
// percentile: the end-to-end estimate of a time.
func (s *series) quiet(p float64) float64 { return percentile(s.perWindow(p), 0.25) }

// load is what one measured pass saw from the client's side.
type load struct {
	start             time.Time
	dur               time.Duration
	attempted, failed int
	// Per window: correct replies, and the time they took (closed loop: the
	// loop's time on the window's epochs; open loop: the window's length).
	ops  [windows]float64
	busy [windows]time.Duration

	epoch       series        // closed: first submit to last reply, ms; open: the engine's Stats().Wall
	lat         series        // per-operation latency, ms
	submitTotal time.Duration // time inside ReadAsync/WriteAsync
	flushMs     []float64     // closed loop, per epoch
	awaitMs     []float64
	distinct    []float64 // distinct keys per epoch
	late        series    // open loop: how late each operation was sent, ms
	lastReply   time.Duration
	lastDue     time.Duration
	stats       []snoopy.EpochStats // open loop: one per engine epoch seen
}

// window is the window an offset from the pass's start falls in.
func (l *load) window(at time.Duration) int { return min(windows-1, int(at*windows/l.dur)) }

// throughput is the upper quartile over the windows of each window's correct
// replies per second of its wall time.
func (l *load) throughput() float64 {
	var per []float64
	for w, busy := range l.busy {
		if busy > 0 {
			per = append(per, l.ops[w]/busy.Seconds())
		}
	}
	return percentile(per, 0.75)
}

// wholeThroughput is correct replies per second of the whole pass.
func (l *load) wholeThroughput() float64 {
	var busy time.Duration
	for _, b := range l.busy {
		busy += b
	}
	return sum(l.ops[:]) / busy.Seconds()
}

// lateP99 is how late the open loop's dispatcher ran: the median over the
// windows of each window's p99, like the latency percentiles it vouches for.
func (l *load) lateP99() float64 { return l.late.over(0.99) }

// limitOK applies the open loop's latency limit.
func (l *load) limitOK(sp spec) bool {
	lim := limitEpochs * ms(sp.epoch)
	return l.lat.over(0.99) <= lim &&
		float64(l.attempted-l.failed) >= limitGoodput*float64(l.attempted) &&
		ms(l.lastReply-l.lastDue) <= lim
}

// runner drives one deployment with one workload and checks every reply.
type runner struct {
	sp   spec
	pool []op // closed loop: cycled operation pool
	rng  *rand.Rand
	orc  *oracle
	seq  uint64
	next int

	warmFailed int // closed loop: warm-up replies the oracle rejected

	tr         *tracer
	afterEpoch func()                     // closed loop, traced run: sample Stats() and directories
	tamper     func(seq uint64, v []byte) // test hook: corrupt a reply before the oracle sees it
	cur        []op                       // the epoch in flight
	waits      []func() ([]byte, bool, error)
	vals       []byte
	stamp      []uint32 // distinct-key counting scratch
}

func newRunner(sp spec, pool []op, seed int64) *runner {
	return &runner{
		sp: sp, pool: pool, orc: newOracle(sp.objects),
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		cur:   make([]op, sp.perEpoch),
		waits: make([]func() ([]byte, bool, error), sp.perEpoch),
		vals:  make([]byte, sp.perEpoch*blockSize),
		stamp: make([]uint32, sp.objects),
	}
}

// epochOnce submits one closed-loop epoch from the pool, flushes if the
// store has no ticker, awaits and checks every reply. l may be nil (warm-up).
func (r *runner) epochOnce(st *snoopy.Store, l *load, epoch int64) (failed int) {
	R := r.sp.perEpoch
	stride := max(1, R/latSamples)
	var sent [latSamples + 1]time.Time
	win := 0
	if l != nil {
		win = l.window(time.Since(l.start))
	}

	for i := range r.cur {
		r.cur[i] = r.pool[r.next]
		r.next = (r.next + 1) % len(r.pool)
	}

	eid := r.tr.begin("bench.epoch", 0, epoch)
	sid := r.tr.begin("core.submit", eid, epoch)
	t0 := time.Now()
	distinct := 0
	for i, o := range r.cur {
		r.seq++
		if r.stamp[o.key] != uint32(epoch)+1 {
			r.stamp[o.key] = uint32(epoch) + 1
			distinct++
		}
		if i%stride == 0 && i/stride < len(sent) {
			sent[i/stride] = time.Now()
		}
		var err error
		if o.write {
			v := r.vals[i*blockSize : (i+1)*blockSize]
			fillValue(v, o.key, r.seq)
			r.orc.stage(o.key, r.seq)
			r.waits[i], err = st.WriteAsync(o.key, v)
		} else {
			r.waits[i], err = st.ReadAsync(o.key)
		}
		if err != nil {
			r.waits[i] = nil
			failed++
		}
	}
	t1 := time.Now()
	r.tr.end(sid)
	if !r.sp.open() {
		fid := r.tr.begin("core.flush", eid, epoch)
		if r.tr != nil {
			r.tr.flush.Store(fid)
			r.tr.epoch.Store(epoch)
		}
		st.Flush()
		r.tr.end(fid)
	}
	t2 := time.Now()
	aid := r.tr.begin("core.await", eid, epoch)
	for i, w := range r.waits {
		if w == nil {
			continue
		}
		v, found, err := w()
		if l != nil && i%stride == 0 && i/stride < len(sent) {
			l.lat.add(win, ms(time.Since(sent[i/stride])))
		}
		if r.tamper != nil {
			r.tamper(r.seq-uint64(R-1-i), v)
		}
		if err != nil || !r.orc.check(r.cur[i].key, v, found) {
			failed++
		}
	}
	t3 := time.Now()
	r.tr.end(aid)
	r.tr.end(eid)
	r.orc.endEpoch()
	if l == nil {
		return failed
	}
	l.attempted += R
	l.failed += failed
	l.epoch.add(win, ms(t3.Sub(t0)))
	l.submitTotal += t1.Sub(t0)
	l.flushMs = append(l.flushMs, ms(t2.Sub(t1)))
	l.awaitMs = append(l.awaitMs, ms(t3.Sub(t2)))
	l.distinct = append(l.distinct, float64(distinct))
	if r.afterEpoch != nil {
		r.afterEpoch()
	}
	l.ops[win] += float64(R - failed)
	l.busy[win] += time.Since(t0)
	return failed
}

// warmup runs the set-up epochs: they fill the engine's pools and the
// partitions' scratch, and count toward setup_s, not the measurement. Under
// the engine's own ticker a warm-up epoch may straddle a tick, so only the
// closed loop holds its replies to the oracle.
func (r *runner) warmup(st *snoopy.Store) {
	for e := 0; e < warmupEpochs; e++ {
		failed := r.epochOnce(st, nil, -int64(e)-1)
		if !r.sp.open() {
			r.warmFailed += failed
		}
	}
}

// closed is the closed loop: submit R, Flush, await all R, repeat for dur.
func (r *runner) closed(st *snoopy.Store, dur time.Duration) *load {
	l := &load{start: time.Now(), dur: dur}
	for e := int64(0); time.Since(l.start) < dur; e++ {
		r.epochOnce(st, l, e)
	}
	return l
}

// openLoop paces a precomputed Poisson schedule: a dispatcher submits each
// operation when it is due (all that are due, if it woke late), a collector
// awaits the replies in submission order. Latency runs from the due time,
// so a stall charges every operation it delayed, and late records how
// much of that was the generator's own doing.
func (r *runner) openLoop(st *snoopy.Store, dur time.Duration) *load {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(r.rng.ExpFloat64() / r.sp.rate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	ops := genOps(r.rng, r.sp, len(due))
	writes := 0
	for _, o := range ops {
		if o.write {
			writes++
		}
	}
	vals := make([]byte, writes*blockSize)
	base := r.seq // replies may still carry warm-up values, whose seq is ≤ base

	l := &load{dur: dur}
	l.attempted = len(ops)
	type sentOp struct {
		i    int
		wait func() ([]byte, bool, error)
	}
	// Sized to the number of sends, so the dispatcher never blocks on the
	// collector.
	ch := make(chan sentOp, len(ops))
	collected := make(chan struct{})
	stopStats := make(chan struct{})
	statsDone := make(chan struct{})
	start := time.Now()

	go func() { // collector
		defer close(collected)
		for s := range ch {
			if s.wait == nil {
				l.failed++
				continue
			}
			v, found, err := s.wait()
			now := time.Since(start)
			win := l.window(due[s.i])
			l.lat.add(win, ms(now-due[s.i]))
			l.lastReply = now
			if r.tamper != nil {
				r.tamper(base+uint64(s.i)+1, v)
			}
			if err != nil || !checkOpen(ops, s.i, base, v, found) {
				l.failed++
				continue
			}
			l.ops[win]++
		}
	}()
	go func() { // the engine's own account of each epoch, polled
		defer close(statsDone)
		tick := time.NewTicker(r.sp.epoch / 4)
		defer tick.Stop()
		last := st.Stats().Epoch
		for {
			select {
			case <-stopStats:
				return
			case <-tick.C:
				if s := st.Stats(); s.Epoch != last && s.Requests > 0 {
					last = s.Epoch
					l.stats = append(l.stats, s)
					l.epoch.add(l.window(time.Since(start)), ms(s.Wall))
				}
			}
		}
	}()

	w := 0
	for i := 0; i < len(ops); {
		now := time.Since(start)
		if due[i] > now {
			// Spin, yielding to whatever else can run, not sleep: a process
			// that idles between epochs hands its vCPU back to the host, and
			// on the reference sandbox gets it back cold (README.md).
			runtime.Gosched()
			continue
		}
		o := ops[i]
		l.late.add(l.window(due[i]), ms(now-due[i]))
		s := sentOp{i: i}
		var err error
		if o.write {
			v := vals[w*blockSize : (w+1)*blockSize]
			w++
			fillValue(v, o.key, base+uint64(i)+1)
			s.wait, err = st.WriteAsync(o.key, v)
		} else {
			s.wait, err = st.ReadAsync(o.key)
		}
		if err != nil {
			s.wait = nil
		}
		l.submitTotal += time.Since(start) - now
		ch <- s
		i++
	}
	close(ch)
	if len(due) > 0 {
		l.lastDue = due[len(due)-1]
	}
	// Unanswered at the drain timeout counts as failed: closing the store
	// fails what is still pending, which releases the collector.
	select {
	case <-collected:
	case <-time.After(5*time.Second + limitEpochs*r.sp.epoch):
		st.Close()
		<-collected
	}
	for w := range l.busy {
		l.busy[w] = dur / windows
	}
	close(stopStats)
	<-statsDone
	r.seq = base + uint64(len(ops))

	// Distinct keys per epoch-length slice of the schedule: the client does
	// not know the engine's epoch boundaries, the slices have their size.
	seen := map[uint64]bool{}
	slice := time.Duration(0)
	for i, o := range ops {
		if due[i] >= slice+r.sp.epoch {
			l.distinct = append(l.distinct, float64(len(seen)))
			clear(seen)
			slice += r.sp.epoch * ((due[i] - slice) / r.sp.epoch)
		}
		seen[o.key] = true
	}
	return l
}

func (r *runner) run(st *snoopy.Store, dur time.Duration) *load {
	if r.sp.open() {
		return r.openLoop(st, dur)
	}
	return r.closed(st, dur)
}
