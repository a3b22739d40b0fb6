// The -lbtree mode benchmarks the hierarchical load-balancer plane against
// the monolithic one: the same R requests are batched by a monolithic
// balancer (sort and compact the R real rows, distribute them into α·S
// slots) and by aggregation trees of 1, 2, 4 and 8 leaves (the same build
// per leaf over R/L rows, plus the root's merge and compaction of the
// already-sorted runs). The report records measured wall time and
// steady-state allocations per MakeBatches, alongside the exact oblivious
// row-operation counts of the root-level work and the verdict they give:
// whether the root's merge undercuts the whole monolithic build — the only
// way a tree with remote leaves can shorten the plane's critical path.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/store"
)

type lbtreeEntry struct {
	Leaves   int   `json:"leaves"`
	NsOp     int64 `json:"ns_op"`
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
	// RootOps is the oblivious row-operation count (compare-exchanges and
	// conditional swaps) at the root level: the whole build for the
	// monolithic balancer (loadbalancer.MakeBatchesCost), the merge and
	// compaction of the per-leaf runs for a tree
	// (loadbalancer.TreeRootCost). A pure function of public parameters.
	RootOps int `json:"root_ops"`
	// RootFractionOfMonolithic = RootOps / the monolithic build's; < 1
	// means the root does less than a balancer working alone would.
	RootFractionOfMonolithic float64 `json:"root_fraction_of_monolithic"`
}

type lbtreeReport struct {
	Config struct {
		Requests  int `json:"requests"`
		SubORAMs  int `json:"suborams"`
		Lambda    int `json:"lambda"`
		BlockSize int `json:"block_size"`
	} `json:"config"`
	Monolithic lbtreeEntry   `json:"monolithic"`
	Tree       []lbtreeEntry `json:"tree"`
}

// runLBTree benchmarks monolithic vs tree batch formation and writes the
// comparison to path (results/BENCH_lbtree.json via scripts/bench.sh).
func runLBTree(path string) error {
	const (
		reqCount = 4096
		subs     = 4
		lambda   = 128
		block    = 160
	)
	var rep lbtreeReport
	rep.Config.Requests = reqCount
	rep.Config.SubORAMs = subs
	rep.Config.Lambda = lambda
	rep.Config.BlockSize = block

	key := crypt.MustNewKey()
	rng := rand.New(rand.NewSource(65))
	all := store.NewRequests(reqCount, block)
	for i := 0; i < reqCount; i++ {
		all.SetRow(i, store.OpRead, rng.Uint64()%uint64(4*reqCount), 0, uint64(i), uint64(i), nil)
	}

	alpha := batch.Size(reqCount, subs, lambda)
	if alpha == 0 {
		alpha = 1
	}
	monoOps := loadbalancer.MakeBatchesCost(reqCount, subs, alpha)

	cfg := loadbalancer.Config{BlockSize: block, NumSubORAMs: subs, Lambda: lambda, SortWorkers: 1}

	monoRes := testing.Benchmark(func(b *testing.B) {
		c := cfg
		c.Pool = arena.NewPool()
		lb := loadbalancer.New(c, key)
		warm, err := lb.MakeBatches(all)
		if err != nil {
			b.Fatal(err)
		}
		warm.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb, err := lb.MakeBatches(all)
			if err != nil {
				b.Fatal(err)
			}
			bb.Release()
		}
	})
	rep.Monolithic = lbtreeEntry{
		Leaves:                   1,
		NsOp:                     monoRes.NsPerOp(),
		BOp:                      monoRes.AllocedBytesPerOp(),
		AllocsOp:                 monoRes.AllocsPerOp(),
		RootOps:                  monoOps,
		RootFractionOfMonolithic: 1,
	}
	fmt.Printf("monolithic:  %12d ns/op  %6d B/op  %4d allocs/op  (build: %d row ops)\n",
		rep.Monolithic.NsOp, rep.Monolithic.BOp, rep.Monolithic.AllocsOp, monoOps)

	for _, leaves := range []int{1, 2, 4, 8} {
		feeds, rates := splitLBTreeFeeds(all, leaves, block)
		rootOps := loadbalancer.TreeRootCost(rates, subs, lambda)
		res := testing.Benchmark(func(b *testing.B) {
			c := cfg
			c.Pool = arena.NewPool()
			tree, err := loadbalancer.NewTree(loadbalancer.TreeConfig{Config: c, Leaves: leaves}, key)
			if err != nil {
				b.Fatal(err)
			}
			warm, feedErrs, err := tree.MakeBatches(0, feeds)
			if err != nil || feedErrs != nil {
				b.Fatal(err, feedErrs)
			}
			warm.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb, _, err := tree.MakeBatches(uint64(i)+1, feeds)
				if err != nil {
					b.Fatal(err)
				}
				bb.Release()
			}
		})
		e := lbtreeEntry{
			Leaves:                   leaves,
			NsOp:                     res.NsPerOp(),
			BOp:                      res.AllocedBytesPerOp(),
			AllocsOp:                 res.AllocsPerOp(),
			RootOps:                  rootOps,
			RootFractionOfMonolithic: float64(rootOps) / float64(monoOps),
		}
		rep.Tree = append(rep.Tree, e)
		verdict := "root does less than the monolithic build"
		if rootOps >= monoOps {
			verdict = "root alone does MORE than the monolithic build"
		}
		fmt.Printf("tree-%d:      %12d ns/op  %6d B/op  %4d allocs/op  (root merge+compact: %d row ops, %.0f%% of monolithic: %s)\n",
			leaves, e.NsOp, e.BOp, e.AllocsOp, rootOps, 100*e.RootFractionOfMonolithic, verdict)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// splitLBTreeFeeds deals the request set round-robin into per-leaf feeds,
// the way clients spread across the leaves of a plane, and returns the
// public per-feed rates alongside.
func splitLBTreeFeeds(all *store.Requests, leaves, block int) ([]*store.Requests, []int) {
	n := all.Len()
	rates := make([]int, leaves)
	for i := 0; i < n; i++ {
		rates[i%leaves]++
	}
	feeds := make([]*store.Requests, leaves)
	fill := make([]int, leaves)
	for f := range feeds {
		feeds[f] = store.NewRequests(rates[f], block)
	}
	for i := 0; i < n; i++ {
		f := i % leaves
		j := fill[f]
		feeds[f].SetRow(j, all.Op[i], all.Key[i], 0, uint64(j), uint64(j), all.Block(i))
		fill[f]++
	}
	return feeds, rates
}
