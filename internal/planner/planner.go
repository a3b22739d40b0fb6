// Package planner implements Snoopy's deployment planner (paper §6): given
// a data size, a minimum throughput, and a maximum average latency, it
// searches configurations (number of load balancers B, number of subORAMs
// S) for the cheapest one that meets the targets, using the paper's three
// relationships:
//
//	(1) T ≥ max( L_LB(X·T/B, S),  B · L_S(f(X·T/B, S), N/S) )
//	(2) L_sys ≤ 5T/2
//	(3) C_sys = B·C_LB + S·C_S
//
// where T is the epoch length, X the offered load, and f the Theorem-3
// batch size. Component latencies L_LB and L_S come from a CostModel —
// either the analytic model calibrated against this implementation's
// microbenchmarks, or caller-supplied measurements.
package planner

import (
	"fmt"
	"strings"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/ohash"
)

// CostModel supplies component processing times.
type CostModel struct {
	// LBTime is the load-balancer time to build batches for r requests
	// across s subORAMs and match their responses.
	LBTime func(r, s int) time.Duration
	// SubTime is the subORAM time to process one batch of the given size
	// against objectsPerSub stored objects.
	SubTime func(batchSize, objectsPerSub int) time.Duration
}

// AnalyticModel builds a CostModel from per-unit constants and the
// implementation's exact operation counts, each a closed form in public
// parameters: opNs is the cost of one oblivious row operation (a bitonic
// compare-exchange or a compaction/distribution swap); slotNs the cost of
// one hash-table slot compared and exchanged against a scanned object, and
// fixedNs the scan's cost per stored object before any slot. The load
// balancer performs MakeBatchesCost + MatchResponsesCost operations per
// epoch (sort, compact and distribute the r real rows; sort the r requests'
// metadata, merge it with the α·s responses and compact the r + α·s rows to
// match). The subORAM is priced on the table it will actually build —
// ohash.GeometryFor over the same public (batch size, partition size, λ) —
// as that table's BuildCost + ExtractCost row operations plus, for every
// stored object, fixedNs and slotNs for each of the Z1 + Z2 slots a lookup
// scans.
func AnalyticModel(opNs, slotNs, fixedNs float64, lambda int) CostModel {
	lb := func(r, s int) time.Duration {
		return time.Duration(opNs * float64(lbOps(r, s, lambda)))
	}
	sub := func(batchSize, objectsPerSub int) time.Duration {
		g := ohash.GeometryFor(batchSize, objectsPerSub, lambda)
		scan := float64(objectsPerSub) * (fixedNs + slotNs*float64(g.SlotsScannedPerLookup()))
		return time.Duration(opNs*float64(g.BuildCost()+g.ExtractCost()) + scan)
	}
	return CostModel{LBTime: lb, SubTime: sub}
}

// lbOps is the monolithic load balancer's oblivious row-operation count for
// one epoch of r requests over s subORAMs.
func lbOps(r, s, lambda int) int {
	alpha := max(batch.Size(r, s, lambda), 1)
	return loadbalancer.MakeBatchesCost(r, s, alpha) + loadbalancer.MatchResponsesCost(r, s, alpha)
}

// Prices is the per-node monthly cost (the paper uses Azure DCsv2-series
// instances; both node types run the same SKU).
type Prices struct {
	LoadBalancer float64
	SubORAM      float64
}

// DefaultPrices approximates the paper's DC4s_v2 pricing.
func DefaultPrices() Prices { return Prices{LoadBalancer: 420, SubORAM: 420} }

// Requirements is the planner input.
type Requirements struct {
	Objects       int
	BlockSize     int
	MinThroughput float64 // requests/second
	MaxLatency    time.Duration
	Lambda        int
	// Search bounds (defaults 8/32).
	MaxLoadBalancers int
	MaxSubORAMs      int
}

// Plan is a feasible configuration.
type Plan struct {
	LoadBalancers int
	SubORAMs      int
	Epoch         time.Duration
	AvgLatency    time.Duration
	Throughput    float64 // sustainable reqs/sec at this epoch
	CostPerMonth  float64
}

// Machines returns the total node count.
func (p Plan) Machines() int { return p.LoadBalancers + p.SubORAMs }

// Format renders the plan the way snoopy-planner prints it (also pinned by
// the planner's golden-file test).
func (p Plan) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  load balancers: %d\n", p.LoadBalancers)
	fmt.Fprintf(&b, "  subORAMs:       %d\n", p.SubORAMs)
	fmt.Fprintf(&b, "  epoch:          %v\n", p.Epoch.Round(time.Millisecond))
	fmt.Fprintf(&b, "  avg latency:    %v\n", p.AvgLatency.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput:     %.0f reqs/s\n", p.Throughput)
	fmt.Fprintf(&b, "  cost:           $%.0f/month (%d machines)\n", p.CostPerMonth, p.Machines())
	return b.String()
}

// Optimize returns the cheapest feasible plan (ties: fewer machines, then
// more subORAMs, mirroring the paper's preference for partitioning).
func Optimize(req Requirements, m CostModel, prices Prices) (Plan, error) {
	if req.Lambda <= 0 {
		req.Lambda = 128
	}
	if req.MaxLoadBalancers <= 0 {
		req.MaxLoadBalancers = 8
	}
	if req.MaxSubORAMs <= 0 {
		req.MaxSubORAMs = 32
	}
	if req.MinThroughput <= 0 || req.MaxLatency <= 0 || req.Objects <= 0 {
		return Plan{}, fmt.Errorf("planner: throughput, latency and objects must be positive")
	}
	var best *Plan
	for s := 1; s <= req.MaxSubORAMs; s++ {
		for b := 1; b <= req.MaxLoadBalancers; b++ {
			p, ok := feasible(req, m, b, s)
			if !ok {
				continue
			}
			p.CostPerMonth = float64(b)*prices.LoadBalancer + float64(s)*prices.SubORAM
			if best == nil ||
				p.CostPerMonth < best.CostPerMonth ||
				(p.CostPerMonth == best.CostPerMonth && p.Machines() < best.Machines()) ||
				(p.CostPerMonth == best.CostPerMonth && p.Machines() == best.Machines() && p.SubORAMs > best.SubORAMs) {
				pp := p
				best = &pp
			}
		}
	}
	if best == nil {
		return Plan{}, fmt.Errorf("planner: no configuration within %d LBs × %d subORAMs meets %g reqs/s at %v",
			req.MaxLoadBalancers, req.MaxSubORAMs, req.MinThroughput, req.MaxLatency)
	}
	return *best, nil
}

// feasible checks Equations (1)-(2) for a configuration, choosing the
// largest epoch the latency budget allows (larger epochs amortize dummies
// best, paper Fig. 3).
func feasible(req Requirements, m CostModel, b, s int) (Plan, bool) {
	// Equation (2): T ≤ 2·L_max/5.
	tMax := time.Duration(2 * float64(req.MaxLatency) / 5)
	if tMax <= 0 {
		return Plan{}, false
	}
	objectsPerSub := (req.Objects + s - 1) / s
	// Equation (1) at epoch T: processing must fit within T.
	fits := func(t time.Duration) bool {
		r := int(req.MinThroughput * t.Seconds() / float64(b)) // per-LB epoch load
		alpha := batch.Size(r, s, req.Lambda)
		if alpha == 0 {
			alpha = 1
		}
		lbT := m.LBTime(r, s)
		subT := time.Duration(b) * m.SubTime(alpha, objectsPerSub)
		if lbT > subT {
			return lbT <= t
		}
		return subT <= t
	}
	if !fits(tMax) {
		// Processing time grows sublinearly in T (batch size grows ~T),
		// so if the largest allowed epoch does not fit, none will —
		// except when the per-epoch fixed cost dominates; probe smaller
		// epochs to be sure.
		ok := false
		for _, frac := range []float64{0.5, 0.25, 0.1} {
			t := time.Duration(float64(tMax) * frac)
			if t > 0 && fits(t) {
				tMax = t
				ok = true
				break
			}
		}
		if !ok {
			return Plan{}, false
		}
	}
	r := int(req.MinThroughput * tMax.Seconds() / float64(b))
	return Plan{
		LoadBalancers: b,
		SubORAMs:      s,
		Epoch:         tMax,
		AvgLatency:    time.Duration(5 * float64(tMax) / 2),
		Throughput:    float64(r*b) / tMax.Seconds(),
	}, true
}

// MaxThroughput inverts the planner: for a fixed configuration and latency
// budget, it returns the highest offered load (reqs/sec) that Equation (1)
// still satisfies — the quantity plotted on the y-axis of Fig. 9a.
func MaxThroughput(req Requirements, m CostModel, b, s int) float64 {
	if req.Lambda <= 0 {
		req.Lambda = 128
	}
	tEpoch := time.Duration(2 * float64(req.MaxLatency) / 5)
	if tEpoch <= 0 {
		return 0
	}
	objectsPerSub := (req.Objects + s - 1) / s
	fits := func(x float64) bool {
		r := int(x * tEpoch.Seconds() / float64(b))
		alpha := batch.Size(r, s, req.Lambda)
		if alpha == 0 {
			alpha = 1
		}
		lbT := m.LBTime(r, s)
		subT := time.Duration(b) * m.SubTime(alpha, objectsPerSub)
		t := lbT
		if subT > t {
			t = subT
		}
		return t <= tEpoch
	}
	if !fits(1) {
		return 0
	}
	lo, hi := 1.0, 1.0
	for fits(hi) && hi < 1e9 {
		hi *= 2
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
