// Package figures regenerates every table and figure of the paper's
// evaluation (§8). Analytic figures (3, 4) come straight from the
// Theorem-3 math; performance figures measure this repository's real
// components on local hardware and, where the paper's cluster sizes exceed
// one machine, extend the measurements through the paper's own pipeline
// equations (§6, Eq. 1–2) — the planner methodology the authors use
// themselves. Absolute numbers therefore differ from the paper's Azure
// cluster, but the shapes (who wins, scaling slopes, crossovers) are
// preserved and recorded in EXPERIMENTS.md.
package figures

import (
	"fmt"
	"io"
	"math"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/obladi"
	"snoopy/internal/oblix"
	"snoopy/internal/planner"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Scale controls experiment sizes. The paper's full sizes (2M–10M objects)
// take hours in pure Go; the default scale preserves every shape at sizes
// a laptop handles in minutes.
type Scale struct {
	// Objects is the total data size for the main experiments (paper: 2M).
	Objects int
	// Block is the object size (paper: 160 B).
	Block int
	// KTUsers is the key-transparency user count (paper: 5M).
	KTUsers int
	// Workers models the per-machine core budget (paper: 4-core DC4s_v2).
	Workers int
	// Lambda is the security parameter.
	Lambda int
}

// DefaultScale fits a laptop run.
func DefaultScale() Scale {
	return Scale{Objects: 1 << 17, Block: 160, KTUsers: 1 << 16, Workers: 4, Lambda: 128}
}

// FullScale is the paper's parameterization (slow!).
func FullScale() Scale {
	return Scale{Objects: 2_000_000, Block: 160, KTUsers: 5_000_000, Workers: 4, Lambda: 128}
}

// Network model for cross-machine figures: ~1 Gbps with datacenter RTT,
// matching the paper's testbed links.
const netBytesPerSec = 125e6

var netRTT = 500 * time.Microsecond

// measureModel builds a planner cost model by timing the real load
// balancer and subORAM at probe sizes near the experiment's operating
// point (block size and λ as configured).
func measureModel(block, lambda, workers int) planner.CostModel {
	// --- Load balancer sort constant ---
	const probeReqs, probeSubs = 2048, 4
	lb := loadbalancer.New(loadbalancer.Config{
		BlockSize: block, NumSubORAMs: probeSubs, Lambda: lambda, SortWorkers: workers,
	}, crypt.MustNewKey())
	reqs := randomReads(probeReqs, block)
	t0 := time.Now()
	b, err := lb.MakeBatches(reqs)
	if err != nil {
		panic(err)
	}
	b.All.StampKeyOrder() // the batches stand in for their own responses
	if _, err := lb.MatchResponses(b.All, reqs); err != nil {
		panic(err)
	}
	lbWall := time.Since(t0)
	m := float64(probeReqs + b.PerSub*probeSubs)
	sortNs := float64(lbWall.Nanoseconds()) / (2 * m * log2(m) * log2(m))

	// --- SubORAM: separate the batch-dependent build from the linear
	// scan by probing two object counts at the same batch size. ---
	const o1, o2 = 1 << 13, 1 << 15
	t1 := timeSubORAM(block, workers, o1, b.PerSub)
	t2 := timeSubORAM(block, workers, o2, b.PerSub)
	scanNs := float64((t2 - t1).Nanoseconds()) / float64(o2-o1)
	if scanNs <= 0 {
		scanNs = 1
	}
	fixed := float64(t1.Nanoseconds()) - scanNs*o1
	mb := 8 * float64(b.PerSub)
	buildSortNs := fixed / (mb * log2(mb) * log2(mb))
	if buildSortNs <= 0 {
		buildSortNs = sortNs
	}

	lbTime := func(r, s int) time.Duration {
		alpha := batch.Size(r, s, lambda)
		mm := float64(r + alpha*s)
		if mm < 2 {
			mm = 2
		}
		return time.Duration(2 * sortNs * mm * log2(mm) * log2(mm))
	}
	subTime := func(batchSize, objectsPerSub int) time.Duration {
		if batchSize < 2 {
			batchSize = 2
		}
		mm := 8 * float64(batchSize)
		compute := buildSortNs*mm*log2(mm)*log2(mm) + scanNs*float64(objectsPerSub)
		// LB↔subORAM transfer for the batch and its responses (Gigabit
		// link + sub-ms RTT, as in the paper's testbed).
		netBytes := float64(2 * batchSize * (block + 64))
		net := float64(netRTT.Nanoseconds()) + netBytes/netBytesPerSec*1e9
		return time.Duration(compute + net)
	}
	return planner.CostModel{LBTime: lbTime, SubTime: subTime}
}

func timeSubORAM(block, workers, objects, batchSize int) time.Duration {
	sub := suboram.New(suboram.Config{BlockSize: block, Workers: workers})
	ids := make([]uint64, objects)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, make([]byte, objects*block)); err != nil {
		panic(err)
	}
	reqs := randomReads(batchSize, block)
	t0 := time.Now()
	if _, err := sub.BatchAccess(reqs); err != nil {
		panic(err)
	}
	return time.Since(t0)
}

func randomReads(n, block int) *store.Requests {
	reqs := store.NewRequests(n, block)
	for i := 0; i < n; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*7+1), 0, uint64(i), uint64(i), nil)
	}
	return reqs
}

// bestSplit returns the (loadBalancers, subORAMs) split of `machines` that
// maximizes modeled throughput under the latency bound, plus that
// throughput.
func bestSplit(req planner.Requirements, m planner.CostModel, machines int) (lbs, subs int, x float64) {
	for b := 1; b < machines; b++ {
		s := machines - b
		xi := planner.MaxThroughput(req, m, b, s)
		if xi > x {
			x, lbs, subs = xi, b, s
		}
	}
	return
}

// measureObladi returns the baseline's sustained throughput and per-batch
// latency at the given data size (2 machines: proxy + storage).
func measureObladi(objects, block int) (reqsPerSec float64, batchLatency time.Duration) {
	ids := make([]uint64, objects)
	for i := range ids {
		ids[i] = uint64(i)
	}
	p, err := obladi.New(obladi.Config{BlockSize: block, Network: obladi.DefaultNetwork()},
		ids, make([]byte, objects*block))
	if err != nil {
		panic(err)
	}
	ops := make([]obladi.Op, obladi.DefaultBatchSize)
	for i := range ops {
		ops[i] = obladi.Op{Key: uint64((i * 37) % objects)}
	}
	// Warm-up batch, then measure.
	if _, err := p.ExecuteBatch(ops); err != nil {
		panic(err)
	}
	const rounds = 3
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if _, err := p.ExecuteBatch(ops); err != nil {
			panic(err)
		}
	}
	wall := time.Since(t0)
	per := wall / rounds
	return float64(len(ops)) / per.Seconds(), per
}

// measureOblix returns vanilla Oblix's sequential throughput and
// per-access latency at the given data size (1 machine).
func measureOblix(objects, block int) (reqsPerSec float64, accessLatency time.Duration) {
	d, err := oblix.New(objects, block)
	if err != nil {
		panic(err)
	}
	// Warm up.
	for i := 0; i < 64; i++ {
		d.Access(false, uint32(i%objects), nil)
	}
	const probes = 512
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		d.Access(false, uint32((i*31)%objects), nil)
	}
	per := time.Since(t0) / probes
	return 1 / per.Seconds(), per
}

// measureOblixSubORAM times an oblix partition processing one α-sized
// batch at the given partition size (for Fig. 10's Snoopy-Oblix).
func measureOblixSubORAM(objectsPerSub, alpha, block int) time.Duration {
	d, err := oblix.New(objectsPerSub, block)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 32; i++ {
		d.Access(false, uint32(i%objectsPerSub), nil)
	}
	probes := alpha
	if probes > 256 {
		probes = 256
	}
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		d.Access(false, uint32((i*13)%objectsPerSub), nil)
	}
	per := time.Since(t0) / time.Duration(probes)
	return time.Duration(alpha) * per
}

func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
