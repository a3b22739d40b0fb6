// Package figures regenerates every table and figure of the paper's
// evaluation (§8). Analytic figures (3, 4) come straight from the Theorem-3
// math. Fully measured figures (12, 13) time this repository's real
// components; the baselines' numbers are measured too. The Eq. 1–2 figures
// (9a, 9b, 10, 11, 14, the headline) price clusters larger than one machine
// with the planner's one cost model — planner.Calibrate's fit of this
// machine's microbenchmarks, calibrated once per block size, with every batch
// frame crossing the paper's testbed link (planner.Testbed) — and planner's
// one Eq. 1 predicate, the methodology the authors' planner uses. Absolute
// numbers therefore differ from the paper's Azure cluster; EXPERIMENTS.md
// records which shapes (who wins, scaling slopes, crossovers) hold.
package figures

import (
	"fmt"
	"io"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/obladi"
	"snoopy/internal/oblix"
	"snoopy/internal/ohash"
	"snoopy/internal/planner"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Scale controls experiment sizes. The default scale preserves every shape
// at sizes a laptop handles quickly; the paper's full sizes (2M–10M
// objects) took 51 s for every figure on a 2-vCPU Xeon.
type Scale struct {
	// Objects is the total data size for the main experiments (paper: 2M).
	Objects int
	// Block is the object size (paper: 160 B).
	Block int
	// KTUsers is the key-transparency user count (paper: 5M).
	KTUsers int
	// Workers is the core budget of the measured Fig. 12 (paper: 4-core
	// DC4s_v2). The Eq. 1–2 figures price what planner.Calibrate times: a
	// one-worker subORAM scan and the load balancer's adaptive sort.
	Workers int
	// Lambda is the security parameter.
	Lambda int
}

// DefaultScale fits a laptop run.
func DefaultScale() Scale {
	return Scale{Objects: 1 << 17, Block: 160, KTUsers: 1 << 16, Workers: 4, Lambda: 128}
}

// FullScale is the paper's parameterization.
func FullScale() Scale {
	return Scale{Objects: 2_000_000, Block: 160, KTUsers: 5_000_000, Workers: 4, Lambda: 128}
}

// models holds planner.Calibrate's model per (block size, λ): a process
// calibrates each once, however many figures price with it.
var models = map[[2]int]planner.CostModel{}

// calibrated is this machine's cost model for objects of the given size,
// with the paper's testbed link between machines.
func calibrated(block, lambda int) planner.CostModel {
	key := [2]int{block, lambda}
	if m, ok := models[key]; ok {
		return m
	}
	m, err := planner.Calibrate(block, lambda, planner.Testbed)
	if err != nil {
		panic(err)
	}
	models[key] = m
	return m
}

// split is one point of a machine-count figure: the (load balancers,
// subORAMs) split with the most modelled throughput, and that throughput
// (zero when no split meets the latency bound).
type split struct {
	lbs, subs int
	x         float64
}

func bestSplit(req planner.Requirements, m planner.CostModel, machines int) (best split) {
	for b := 1; b < machines; b++ {
		if x := planner.MaxThroughput(req, m, b, machines-b); x > best.x {
			best = split{b, machines - b, x}
		}
	}
	return best
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
	reqs := store.NewRequests(batchSize, block)
	for i := 0; i < batchSize; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*7+1), 0, 0, 0, nil)
	}
	ohash.Order(reqs, crypt.MustNewSipKey())
	t0 := time.Now()
	if _, err := sub.BatchAccess(reqs); err != nil {
		panic(err)
	}
	return time.Since(t0)
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
	probes := min(alpha, 256)
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		d.Access(false, uint32((i*13)%objectsPerSub), nil)
	}
	per := time.Since(t0) / time.Duration(probes)
	return time.Duration(alpha) * per
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
