package planner

import (
	"fmt"
	"time"
)

// OptimizeLatency is the planner variant the paper's §6 proposes as an
// extension: "given a throughput, data size, and cost, output a
// configuration minimizing latency". It searches configurations whose
// monthly cost fits the budget, finds for each the smallest epoch that
// still sustains the required throughput, and returns the one with the
// lowest resulting average latency (5T/2, Eq. 2).
func OptimizeLatency(req Requirements, budget float64, m CostModel, prices Prices) (Plan, error) {
	if req.Lambda <= 0 {
		req.Lambda = 128
	}
	if req.MaxLoadBalancers <= 0 {
		req.MaxLoadBalancers = 8
	}
	if req.MaxSubORAMs <= 0 {
		req.MaxSubORAMs = 32
	}
	if req.MinThroughput <= 0 || req.Objects <= 0 || budget <= 0 {
		return Plan{}, fmt.Errorf("planner: throughput, objects and budget must be positive")
	}
	var best *Plan
	for s := 1; s <= req.MaxSubORAMs; s++ {
		for b := 1; b <= req.MaxLoadBalancers; b++ {
			cost := float64(b)*prices.LoadBalancer + float64(s)*prices.SubORAM
			if cost > budget {
				continue
			}
			t, ok := MinEpoch(req, m, b, s)
			if !ok {
				continue
			}
			p := Plan{
				LoadBalancers: b,
				SubORAMs:      s,
				Epoch:         t,
				AvgLatency:    time.Duration(5 * float64(t) / 2),
				Throughput:    req.MinThroughput,
				CostPerMonth:  cost,
			}
			if best == nil || p.AvgLatency < best.AvgLatency ||
				(p.AvgLatency == best.AvgLatency && p.CostPerMonth < best.CostPerMonth) {
				pp := p
				best = &pp
			}
		}
	}
	if best == nil {
		return Plan{}, fmt.Errorf("planner: no configuration within $%.0f/month sustains %g reqs/s",
			budget, req.MinThroughput)
	}
	return *best, nil
}

// MinEpoch binary-searches the smallest epoch T at which Equation (1) holds
// (Fits) at the required load. Processing time grows sublinearly in T while
// the budget grows linearly, so feasibility is monotone in T.
func MinEpoch(req Requirements, m CostModel, b, s int) (time.Duration, bool) {
	// Exponential probe for an upper bound, capped at one hour.
	hi := time.Millisecond
	for !Fits(req, m, b, s, hi) {
		hi *= 2
		if hi > time.Hour {
			return 0, false
		}
	}
	lo := time.Duration(0)
	for i := 0; i < 40 && hi-lo > 10*time.Microsecond; i++ {
		mid := lo + (hi-lo)/2
		if Fits(req, m, b, s, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}
