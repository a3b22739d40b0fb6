package planner

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// Calibrate measures this machine's actual component costs by running the
// real load balancer and subORAM at a probe size, then fits the analytic
// model's constants to the measurements (paper §8.5: "the planner takes as
// input microbenchmarks"). blockSize is the deployment's object size and
// link the network between its machines. The zero link means every stage
// shares this process, so the model also records the cores it was measured
// on and Fits prices the stages sharing them. Every probe is the quickest of
// three runs: the least disturbed.
func Calibrate(blockSize, lambda int, link Link) (CostModel, error) {
	const (
		probeReqs = 2048
		probeSubs = 4
		probeObjs = 1 << 14
		// probeSmallBatch is the second subORAM probe's batch: small enough
		// that its table scans far fewer slots per object than the first's.
		probeSmallBatch = 8
	)
	// --- Load balancer probe ---
	lb := loadbalancer.New(loadbalancer.Config{
		BlockSize: blockSize, NumSubORAMs: probeSubs, Lambda: lambda,
	}, crypt.MustNewKey())
	reqs := store.NewRequests(probeReqs, blockSize)
	for i := 0; i < probeReqs; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i), 0, uint64(i), uint64(i), nil)
	}
	var lbWall time.Duration
	var perSub int
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		batches, err := lb.MakeBatches(reqs)
		if err != nil {
			return CostModel{}, err
		}
		// The batches stand in for their own responses: they are in the
		// order sent and carry their keys.
		m := batches.Match
		batches.Match = nil
		if _, err := lb.Match(m, batches.All); err != nil {
			return CostModel{}, err
		}
		if d := time.Since(t0); rep == 0 || d < lbWall {
			lbWall = d
		}
		perSub = batches.PerSub
	}
	opNs := float64(lbWall.Nanoseconds()) / float64(lbOps(probeReqs, probeSubs, lambda))

	// --- SubORAM probe ---
	// Two batch sizes against one partition: the table shapes GeometryFor
	// gives them scan different numbers of slots per object, and the two
	// scan times separate the per-slot cost from the per-object one.
	sub := suboram.New(suboram.Config{BlockSize: blockSize, Hash: ohash.Params{Lambda: lambda}})
	ids := make([]uint64, probeObjs)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, make([]byte, probeObjs*blockSize)); err != nil {
		return CostModel{}, err
	}
	probe := func(alpha int) (nsPerObject float64, slots int, err error) {
		batch := store.NewRequests(alpha, blockSize)
		for i := 0; i < alpha; i++ {
			batch.SetRow(i, store.OpRead, uint64(i), 0, 0, 0, nil)
		}
		ohash.Order(batch, crypt.MustNewSipKey())
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			if _, err := sub.BatchAccess(batch); err != nil {
				return 0, 0, err
			}
			if st := sub.LastStats(); rep == 0 || st.Scan < best {
				best, slots = st.Scan, st.SlotsPerLookup
			}
		}
		return float64(best.Nanoseconds()) / probeObjs, slots, nil
	}
	nsA, slotsA, err := probe(perSub)
	if err != nil {
		return CostModel{}, err
	}
	nsB, slotsB, err := probe(probeSmallBatch)
	if err != nil {
		return CostModel{}, err
	}
	if slotsA == slotsB {
		return CostModel{}, fmt.Errorf("planner: calibration batches of %d and %d rows both scan %d slots per object",
			perSub, probeSmallBatch, slotsA)
	}
	slotNs := (nsA - nsB) / float64(slotsA-slotsB)
	fixedNs := nsA - slotNs*float64(slotsA)
	if slotNs <= 0 || fixedNs < 0 { // a disturbed probe: all of the scan on the slots
		log.Printf("planner: calibration probes disagree (%.0f ns/object at %d slots, %.0f at %d): pricing the scan at %.2f ns per slot and nothing per object",
			nsA, slotsA, nsB, slotsB, nsA/float64(slotsA))
		slotNs, fixedNs = nsA/float64(slotsA), 0
	}
	m := AnalyticModel(opNs, slotNs, fixedNs, blockSize, lambda, link)
	if link == (Link{}) {
		m.cores = runtime.GOMAXPROCS(0)
	}
	return m, nil
}
