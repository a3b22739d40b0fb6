package figures

import (
	"io"
	"runtime"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/obliv"
	"snoopy/internal/planner"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Fig12 — breakdown of one epoch's processing time (make batch, subORAM
// process, match responses) as batch size grows, for three data sizes.
// Fully measured, one load balancer and one subORAM (as in the paper).
func Fig12(w io.Writer, sc Scale) {
	sizes := []int{1 << 10, 1 << 15, 1 << 17}
	if sc.Objects >= 1<<20 {
		sizes[2] = 1 << 20
	}
	fprintf(w, "# Figure 12: batch processing breakdown (1 LB, 1 subORAM), block=%dB\n", sc.Block)
	fprintf(w, "# the sealed column stores the partition in enclave-external encrypted memory (§7),\n")
	fprintf(w, "# reproducing the mechanism behind the paper's EPC-paging jump at large data sizes\n")
	for _, objects := range sizes {
		fprintf(w, "## data size %d objects\n", objects)
		fprintf(w, "%10s %14s %14s %16s %14s\n", "requests", "make batch", "process batch", "process (sealed)", "match resp")
		sub := suboram.New(suboram.Config{BlockSize: sc.Block, Workers: sc.Workers})
		sealedSub := suboram.New(suboram.Config{BlockSize: sc.Block, Workers: sc.Workers, Sealed: true})
		ids := make([]uint64, objects)
		for i := range ids {
			ids[i] = uint64(i)
		}
		if err := sub.Init(ids, make([]byte, objects*sc.Block)); err != nil {
			panic(err)
		}
		if err := sealedSub.Init(ids, make([]byte, objects*sc.Block)); err != nil {
			panic(err)
		}
		lb := loadbalancer.New(loadbalancer.Config{
			BlockSize: sc.Block, NumSubORAMs: 1, Lambda: sc.Lambda, SortWorkers: sc.Workers,
		}, crypt.MustNewKey())
		for _, nReq := range []int{1 << 6, 1 << 7, 1 << 8, 1 << 9, 1 << 10} {
			reqs := store.NewRequests(nReq, sc.Block)
			for i := 0; i < nReq; i++ {
				reqs.SetRow(i, store.OpRead, uint64((i*131)%objects), 0, uint64(i), uint64(i), nil)
			}
			batches, err := lb.MakeBatches(reqs)
			if err != nil {
				panic(err)
			}
			out, err := sub.BatchAccess(batches.For(0))
			if err != nil {
				panic(err)
			}
			if _, err := sealedSub.BatchAccess(batches.For(0)); err != nil {
				panic(err)
			}
			if _, err := lb.MatchResponses(out, reqs); err != nil {
				panic(err)
			}
			lbStats := lb.LastStats()
			fprintf(w, "%10d %14v %14v %16v %14v\n", nReq,
				lbStats.MakeBatch.Round(time.Microsecond),
				sub.LastStats().Total().Round(time.Microsecond),
				sealedSub.LastStats().Total().Round(time.Microsecond),
				lbStats.Match.Round(time.Microsecond))
		}
	}
	fprintf(w, "# paper shape: LB time grows with batch size; subORAM time dominated by data size (linear scan)\n")
}

// Fig13a — parallelizing bitonic sort: 1/2/3 threads and the adaptive
// policy across input sizes. Fully measured.
func Fig13a(w io.Writer, sc Scale) {
	fprintf(w, "# Figure 13a: bitonic sort wall time, block=%dB records (host has %d CPU(s);\n", sc.Block, runtime.NumCPU())
	fprintf(w, "#   thread speedups require a multi-core host — on 1 CPU expect overhead instead)\n")
	fprintf(w, "%10s %12s %12s %12s %12s\n", "items", "1 thread", "2 threads", "3 threads", "adaptive")
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		fprintf(w, "%10d", n)
		for _, workers := range []int{1, 2, 3, 0} {
			reqs := store.NewRequests(n, sc.Block)
			for i := 0; i < n; i++ {
				reqs.SetRow(i, store.OpRead, uint64((i*2654435761)%1000000), 0, uint64(i), uint64(i), nil)
			}
			t0 := time.Now()
			if workers == 0 {
				obliv.SortAdaptive(store.BySubKeyTag{Requests: reqs}, runtime.GOMAXPROCS(0))
			} else if workers == 1 {
				obliv.Sort(store.BySubKeyTag{Requests: reqs})
			} else {
				obliv.SortParallel(store.BySubKeyTag{Requests: reqs}, workers)
			}
			fprintf(w, " %12v", time.Since(t0).Round(time.Microsecond))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "# paper shape: threads help large sorts; coordination overhead makes 1 thread best when small\n")
}

// Fig13b — parallelizing the subORAM batch processing across enclave
// threads (batch 4K requests). Fully measured.
func Fig13b(w io.Writer, sc Scale) {
	const batchN = 1 << 12
	maxObj := 1 << 17
	if sc.Objects > maxObj {
		maxObj = sc.Objects
	}
	fprintf(w, "# Figure 13b: subORAM batch processing (batch %d), block=%dB (host has %d CPU(s))\n", batchN, sc.Block, runtime.NumCPU())
	fprintf(w, "%10s %12s %12s %12s %12s\n", "objects", "1 thread", "2 threads", "3 threads", "4 threads")
	for objects := 1 << 12; objects <= maxObj; objects <<= 2 {
		fprintf(w, "%10d", objects)
		for _, workers := range []int{1, 2, 3, 4} {
			fprintf(w, " %12v", timeSubORAM(sc.Block, workers, objects, batchN).Round(time.Microsecond))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "# paper shape: added threads cut the linear-scan time roughly proportionally\n")
}

// fig14Point is one row of Fig. 14: the cheapest plan for a data size and
// throughput target, or why there is none.
type fig14Point struct {
	objects int
	x       float64
	plan    planner.Plan
	err     error
}

// fig14 is Fig. 14's table: the planner's cheapest configuration at a 1 s
// latency bound for two data sizes as the throughput target rises.
func fig14(lambda int, m planner.CostModel) []fig14Point {
	var out []fig14Point
	for _, objects := range []int{10_000, 1_000_000} {
		for _, x := range []float64{5_000, 20_000, 40_000, 80_000, 120_000} {
			p, err := planner.Optimize(planner.Requirements{
				Objects: objects, MinThroughput: x, MaxLatency: time.Second, Lambda: lambda,
				MaxLoadBalancers: 10, MaxSubORAMs: 40,
			}, m, planner.DefaultPrices())
			out = append(out, fig14Point{objects, x, p, err})
		}
	}
	return out
}

// Fig14 — planner outputs: optimal machine allocation (a) and monthly cost
// (b) as the throughput requirement rises, for two data sizes.
func Fig14(w io.Writer, sc Scale) {
	fprintf(w, "# Figure 14: planner — optimal configuration vs throughput (max latency 1s)\n")
	fprintf(w, "%12s %12s %6s %6s %12s\n", "objects", "target rps", "LBs", "subs", "cost $/mo")
	for _, r := range fig14(sc.Lambda, calibrated(sc.Block, sc.Lambda)) {
		if r.err != nil {
			fprintf(w, "%12d %12.0f %13s\n", r.objects, r.x, "infeasible")
		} else {
			fprintf(w, "%12d %12.0f %6d %6d %12.0f\n", r.objects, r.x, r.plan.LoadBalancers, r.plan.SubORAMs, r.plan.CostPerMonth)
		}
	}
	fprintf(w, "# paper shape: larger data favors more subORAMs per LB; cost rises with data size and throughput\n")
}

// Headline — the paper's summary claim: Snoopy at 18 machines vs Obladi.
func Headline(w io.Writer, sc Scale) {
	req := planner.Requirements{Objects: sc.Objects, MaxLatency: 500 * time.Millisecond, Lambda: sc.Lambda}
	snoopy := bestSplit(req, calibrated(sc.Block, sc.Lambda), 18)
	obladiX, obladiLat := measureObladi(min(sc.Objects, 1<<17), sc.Block)
	fprintf(w, "# Headline (§8.2): 18 machines, %d objects x %dB, latency <= 500ms\n", sc.Objects, sc.Block)
	fprintf(w, "snoopy:  %10.0f reqs/s  (%d LBs + %d subORAMs)\n", snoopy.x, snoopy.lbs, snoopy.subs)
	fprintf(w, "obladi:  %10.0f reqs/s  (2 machines, batch latency %v)\n", obladiX, obladiLat.Round(time.Millisecond))
	fprintf(w, "speedup: %10.1fx   (paper: 92K vs 6.7K = 13.7x at 2M objects)\n", snoopy.x/obladiX)
}
