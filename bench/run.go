package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snoopy"
)

const (
	// setUps is how many times one run sets the deployment up; setup_s is
	// their median, the last one is measured.
	setUps   = 5
	poolSize = 1 << 18
)

// inputs are what a seed determines: the operation pool and the object set.
type inputs struct {
	seed int64
	pool []op
	ids  []uint64
	data []byte
}

func makeInputs(sp spec, seed int64) inputs {
	n := poolSize
	if sp.objects < 1<<10 { // the smoke test's shapes
		n = 1 << 12
	}
	in := inputs{seed: seed, pool: genOps(rand.New(rand.NewSource(seed)), sp, n)}
	in.ids, in.data = initialData(sp.objects)
	return in
}

// lane is one deployment, set up and warmed up, with the runner that drives
// it and what the runner saw.
type lane struct {
	d     *deployment
	r     *runner
	l     *load
	setup time.Duration
}

func openLane(e *env, sp spec, in inputs, o deployOpts) (*lane, error) {
	r := newRunner(sp, in.pool, in.seed)
	d, took, err := setUp(e, sp, o, r, in.ids, in.data)
	if err != nil {
		return nil, err
	}
	return &lane{d: d, r: r, setup: took}, nil
}

// counts are the lane's attempted and failed operations, warm-up included:
// a wrong reply during set-up is as wrong as any.
func (ln *lane) counts() (attempted, failed int) {
	attempted, failed = warmupEpochs*ln.r.sp.perEpoch, ln.r.warmFailed
	if ln.l != nil {
		attempted, failed = attempted+ln.l.attempted, failed+ln.l.failed
	}
	return attempted, failed
}

// measure is the untraced run: the end-to-end metrics.
func measure(e *env, sp spec, seed int64, dur time.Duration) (*result, error) {
	if sp.remote {
		if err := e.buildServer(); err != nil {
			return nil, err
		}
	}
	in := makeInputs(sp, seed)
	var setups []float64
	var ln *lane
	for i := 0; i < setUps; i++ {
		if ln != nil {
			ln.d.close() // set up, warmed up, torn down: only the last is measured
			// Collected now, so that rss_peak_mb is one deployment's, not a
			// pile of torn-down ones that depends on when the collector ran.
			runtime.GC()
		}
		var err error
		if ln, err = openLane(e, sp, in, deployOpts{durable: sp.remote}); err != nil {
			return nil, err
		}
		setups = append(setups, ln.setup.Seconds())
	}
	ln.l = ln.r.run(ln.d.st, dur)
	rss := peakRSSMiB(os.Getpid()) + ln.d.close()
	l := ln.l
	late := l.lateP99()
	if sp.open() {
		fmt.Printf("# open loop: offered %.0f ops/s; limit (p99 <= %d epochs, goodput >= %.2f offered, no backlog) met: %v; generator late p99 %.3f ms\n",
			sp.rate, limitEpochs, limitGoodput, l.limitOK(sp), late)
	}
	fmt.Printf("# samples: %d epochs, %d timed operations, in %d windows; each timing below is the quartile, on the undisturbed side, of the windows' own statistics\n",
		len(l.epoch.v), len(l.lat.v), windows)
	fmt.Printf("# whole run, pooled, for comparison: throughput %.1f ops/s, epoch p50 %.3f p95 %.3f ms, latency p50 %.3f p99 %.3f ms\n",
		l.wholeThroughput(), median(l.epoch.v), percentile(l.epoch.v, 0.95), median(l.lat.v), percentile(l.lat.v, 0.99))
	fmt.Printf("# median over the windows, for comparison: epoch p50 %.3f ms, latency p50 %.3f ms\n", l.epoch.over(0.5), l.lat.over(0.5))
	fmt.Printf("# epoch p50 of each window: %.2f ms\n", l.epoch.perWindow(0.5))
	attempted, failed := ln.counts()
	throughput := l.throughput()
	if sp.open() {
		// Goodput at a fixed offered rate: the schedule sets each window's
		// count, so there is no quiet window to look for.
		throughput = l.wholeThroughput()
	}
	res := newResult(endToEnd, attempted, failed, map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": throughput,
		"epoch_ms_p50":   l.epoch.quiet(0.5),
		"latency_ms_p50": l.lat.quiet(0.5),
		"rss_peak_mb":    rss,
	})
	res.genLateMs = late
	return res, nil
}

// traceRun is the traced run. The traced lane is the real engine over
// timing decorators. Beside it run an untraced twin, which prices the
// tracing, and for remote_durable a twin without durability, which prices
// that. Closed loops interleave the lanes epoch by epoch, so a slow
// stretch of the host falls on all of them alike; the open loop, which the
// engine's ticker drives, runs them one after the other. Then the anatomy
// replay, and for open_mixed the rate ladder.
func traceRun(e *env, sp spec, seed int64, dur time.Duration, meta map[string]string) (*result, error) {
	if sp.remote {
		if err := e.buildServer(); err != nil {
			return nil, err
		}
	}
	in := makeInputs(sp, seed)
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	tr := newTracer()
	v := map[string]float64{}
	S := float64(sp.subORAMs)
	// center is what two lanes are compared by: the median latency (open
	// loop) or epoch (closed loop).
	center := func(l *load) float64 {
		if sp.open() {
			return l.lat.over(0.5)
		}
		return l.epoch.over(0.5)
	}

	opts := []deployOpts{{tr: tr, durable: sp.remote}, {durable: sp.remote}}
	openShare := []float64{0.3, 0.15} // the open loop runs these two one after the other
	if sp.remote {
		opts = append(opts, deployOpts{})
	}
	var lanes []*lane
	defer func() {
		for _, ln := range lanes {
			ln.d.close()
		}
	}()
	var rows []epochRow
	var journalGrowth, walGrowth []float64
	var mem, m0, m1 runtime.MemStats
	memAdd := func() {
		mem.Mallocs += m1.Mallocs - m0.Mallocs
		mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
		mem.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
	}
	for i, o := range opts {
		if sp.open() && i > 0 {
			lanes[i-1].d.close() // one ticking engine at a time
		}
		ln, err := openLane(e, sp, in, o)
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, ln)
		if i == 0 {
			for _, t := range ln.d.timed {
				t.take() // warm-up calls
			}
			tr.discard()
			ln.r.tr = tr
			d := ln.d
			lastJ, lastW := dirBytes(d.journal), int64(0)
			for _, dir := range d.dataDirs {
				lastW += dirBytes(dir)
			}
			ln.r.afterEpoch = func() {
				rows = append(rows, rowOf(d.st.Stats()))
				if d.journal == "" {
					return
				}
				j, w := dirBytes(d.journal), int64(0)
				for _, dir := range d.dataDirs {
					w += dirBytes(dir)
				}
				// Compaction shrinks a log; only growth is an epoch's writing.
				journalGrowth = append(journalGrowth, float64(max(0, j-lastJ)))
				walGrowth = append(walGrowth, float64(max(0, w-lastW)))
				lastJ, lastW = j, w
			}
		}
		if sp.open() {
			runtime.ReadMemStats(&m0)
			ln.l = ln.r.run(ln.d.st, share(openShare[i]))
			runtime.ReadMemStats(&m1)
			if i == 0 {
				memAdd()
			}
		}
	}
	if !sp.open() {
		start, total := time.Now(), share(0.75)
		for _, ln := range lanes {
			ln.l = &load{start: start, dur: total}
		}
		for ep := int64(0); time.Since(start) < total; ep++ {
			runtime.ReadMemStats(&m0)
			lanes[0].r.epochOnce(lanes[0].d.st, lanes[0].l, ep)
			runtime.ReadMemStats(&m1)
			memAdd()
			for _, ln := range lanes[1:] {
				ln.r.epochOnce(ln.d.st, ln.l, ep)
			}
		}
	}
	traced, plain := lanes[0], lanes[1]
	l := traced.l
	for _, s := range l.stats {
		rows = append(rows, rowOf(s))
	}
	attempted, failed := 0, 0
	for _, ln := range lanes {
		a, f := ln.counts()
		attempted, failed = attempted+a, failed+f
	}
	ops := float64(l.attempted)

	// What the decorators and the bench-side spans saw, epoch by epoch.
	var partMs []float64
	for _, t := range traced.d.timed {
		partMs = append(partMs, t.take()...)
	}
	var retries uint64
	for _, f := range traced.d.st.Health().TotalFailures {
		retries += f
	}
	// The partition phase of each epoch: what the partition calls, which run
	// side by side, cover together.
	partPhase := tr.coveredByEpoch("suboram.batch_access", "transport.rtt")
	var alphas, reqs, walls, makes, matches, stragglers []float64
	for _, row := range rows {
		alphas, reqs, walls = append(alphas, float64(row.Alpha)), append(reqs, float64(row.Requests)), append(walls, row.WallMs)
		makes, matches, stragglers = append(makes, row.MakeBatchMs), append(matches, row.MatchMs), append(stragglers, row.Straggler)
		v["core.dropped"] += float64(row.Dropped)
	}
	// What nobody accounts for: the epoch as the engine reports it, minus
	// what MakeBatches, the partition phase and MatchResponses took (queue
	// snapshot, journal, dispatch, reply fan-out), and that as a share of
	// the epoch the client saw (closed loop) or the engine's (open loop).
	overhead := median(walls) - median(makes) - median(partPhase) - median(matches)
	whole := median(walls)
	if !sp.open() {
		whole = median(l.epoch.v)
	}
	alpha := median(alphas)
	v["core.epoch_wall_ms"] = median(walls)
	v["core.submit_ns_per_op"] = float64(l.submitTotal) / ops
	v["core.flush_ms"] = median(l.flushMs)
	v["core.await_ms"] = median(l.awaitMs)
	v["core.overhead_ms"] = overhead
	v["core.unattributed_frac"] = overhead / whole
	v["core.allocs_per_op"] = float64(mem.Mallocs) / ops
	v["core.bytes_per_op"] = float64(mem.TotalAlloc) / ops
	v["core.gc_pause_ms_total"] = float64(mem.PauseTotalNs) / 1e6
	v["core.alpha"] = alpha
	v["core.epoch_ms_p95"] = l.epoch.over(0.95)
	v["core.latency_ms_p99"] = l.lat.over(0.99)
	v["core.latency_ms_p999"] = percentile(l.lat.v, 0.999)
	v["core.latency_ms_max"] = percentile(l.lat.v, 1)
	v["loadbalancer.make_batches_ms"] = median(makes)
	v["loadbalancer.match_responses_ms"] = median(matches)
	v["loadbalancer.rows_sorted"] = median(reqs) + alpha*S
	v["loadbalancer.fill_ratio"] = median(l.distinct) / (alpha * S)
	v["suboram.straggler_ratio"] = median(stragglers)
	v["bench.gen_late_ms_p99"] = l.lateP99()
	v["bench.samples"] = float64(len(l.epoch.v))
	v["bench.trace_overhead_frac"] = center(l)/center(plain.l) - 1

	// The layers called directly, one after the other, at this shape.
	a, err := replayAnatomy(tr, sp, in.pool, seed, share(0.1))
	if err != nil {
		return nil, fmt.Errorf("anatomy replay: %w", err)
	}
	build, access := median(a.buildMs), median(a.accessMs)
	v["obliv.sort_ns_per_row"], v["obliv.compact_ns_per_row"] = a.sortNsPerRow, a.compactNsPerRow
	v["ohash.build_ms"] = build
	v["wirecode.encode_ms"], v["wirecode.decode_ms"], v["wirecode.frame_bytes"] = a.encodeMs, a.decodeMs, float64(a.frameBytes)
	v["crypt.seal_mb_per_s"], v["crypt.open_mb_per_s"] = a.sealMBps, a.openMBps
	// One partition's batch: in process, the engine's partition phase over
	// the turns the S equal partitions take on the Ps there are (one turn
	// when each has a P of its own); the scan is that, less the build's share
	// of a batch as the replay found it.
	perPart := median(partPhase) / math.Ceil(S/float64(min(sp.subORAMs, runtime.GOMAXPROCS(0))))
	if sp.remote {
		perPart = access
		v["transport.rtt_ms"] = median(partMs)
		v["transport.overhead_ms"] = median(partMs) - access
		// From the frame shape: request and response each travel as a 4-byte
		// length, a 12-byte nonce, a 25-byte header, the frame and a 16-byte tag.
		v["transport.bytes_per_epoch"] = 2 * S * float64(57+frameBytes(int(alpha)))
		v["transport.retries"] = float64(retries)
		v["persist.overhead_ms"] = center(plain.l) - center(lanes[2].l)
		v["persist.journal_bytes_per_epoch"] = median(journalGrowth)
		v["persist.wal_bytes_per_epoch"] = median(walGrowth)
		v["persist.disk_bytes_per_user_byte"] = (sum(journalGrowth) + sum(walGrowth)) / (ops * sp.writeFrac * blockSize)
	}
	v["suboram.batch_access_ms"] = perPart
	v["suboram.scan_ms"] = perPart * (1 - build/access)
	v["suboram.scan_mb_per_s"] = float64(sp.objects) / S * blockSize / (1 << 20) / (v["suboram.scan_ms"] / 1e3)

	// What only the open loop has: the informational rate ladder.
	for _, rate := range sp.ladder {
		lanes[len(lanes)-1].d.close()
		rung := sp
		rung.rate = rate
		ln, err := openLane(e, rung, in, deployOpts{})
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, ln)
		p := ln.r.run(ln.d.st, share(0.125))
		ok := p.failed == 0 && p.limitOK(rung)
		fmt.Printf("# ladder: %6.0f ops/s  p50 %8.3f ms  p99 %8.3f ms  goodput %8.0f ops/s  limit met: %v\n",
			rate, p.lat.over(0.5), p.lat.over(0.99), p.wholeThroughput(), ok)
		if ok {
			v["core.max_rate_ok_rps"] = max(v["core.max_rate_ok_rps"], rate)
		}
	}

	path := filepath.Join(e.out, "trace_"+sp.name+".json")
	if err := tr.write(path, meta, sp.name, rows); err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %d spans, %d epochs -> %s\n", len(tr.spans), len(rows), path)
	return newResult(perLayer, attempted, failed, v), nil
}

// rowOf is the engine's own account of one epoch.
func rowOf(s snoopy.EpochStats) epochRow {
	row := epochRow{Epoch: s.Epoch, Requests: s.Requests, Alpha: s.BatchSize, Dropped: s.Dropped,
		WallMs: ms(s.Wall), MakeBatchMs: ms(s.MakeBatch), SubORAMMs: ms(s.SubORAM), MatchMs: ms(s.Match)}
	var total, slowest time.Duration
	for _, w := range s.SubORAMWall {
		total, slowest = total+w, max(slowest, w)
	}
	if total > 0 {
		row.Straggler = float64(slowest) * float64(len(s.SubORAMWall)) / float64(total)
	}
	return row
}
