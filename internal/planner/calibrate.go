package planner

import (
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Calibrate measures this machine's actual component costs by running the
// real load balancer and subORAM at a probe size, then fits the analytic
// model's constants to the measurements (paper §8.5: "the planner takes as
// input microbenchmarks"). blockSize is the deployment's object size.
func Calibrate(blockSize, lambda int) CostModel {
	const (
		probeReqs = 2048
		probeSubs = 4
		probeObjs = 1 << 14
	)
	// --- Load balancer probe ---
	lb := loadbalancer.New(loadbalancer.Config{
		BlockSize: blockSize, NumSubORAMs: probeSubs, Lambda: lambda,
	}, crypt.MustNewKey())
	reqs := store.NewRequests(probeReqs, blockSize)
	for i := 0; i < probeReqs; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i), 0, uint64(i), uint64(i), nil)
	}
	t0 := time.Now()
	batches, err := lb.MakeBatches(reqs)
	if err != nil {
		return AnalyticModel(8, 50, lambda) // conservative fallback
	}
	batches.All.StampKeyOrder() // the batches stand in for their own responses
	if _, err := lb.MatchResponses(batches.All, reqs); err != nil {
		return AnalyticModel(8, 50, lambda)
	}
	lbWall := time.Since(t0)
	opNs := float64(lbWall.Nanoseconds()) / float64(lbOps(probeReqs, probeSubs, lambda))

	// --- SubORAM probe ---
	sub := suboram.New(suboram.Config{BlockSize: blockSize})
	ids := make([]uint64, probeObjs)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, make([]byte, probeObjs*blockSize)); err != nil {
		return AnalyticModel(opNs, 50, lambda)
	}
	probeBatch := store.NewRequests(batches.PerSub, blockSize)
	for i := 0; i < probeBatch.Len(); i++ {
		probeBatch.SetRow(i, store.OpRead, uint64(i), 0, uint64(i), uint64(i), nil)
	}
	t0 = time.Now()
	if _, err := sub.BatchAccess(probeBatch); err != nil {
		return AnalyticModel(opNs, 50, lambda)
	}
	subWall := time.Since(t0)
	// Attribute the table build and extraction via the per-operation
	// constant, the rest to the scan.
	tableNs := opNs * float64(subOps(probeBatch.Len(), lambda))
	scanNs := (float64(subWall.Nanoseconds()) - tableNs) / float64(probeObjs)
	if scanNs <= 0 {
		scanNs = 1
	}
	return AnalyticModel(opNs, scanNs, lambda)
}
