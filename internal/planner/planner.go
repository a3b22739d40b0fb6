// Package planner implements Snoopy's deployment planner (paper §6): given
// a data size, a minimum throughput, and a maximum average latency, it
// searches configurations (number of load balancers B, number of subORAMs
// S) for the cheapest one that meets the targets, using the paper's three
// relationships:
//
//	(1) T ≥ max( L_LB(X·T/B, S),  B · (L_S(α, N/S) + 2·L_net(α)) ),  α = f(X·T/B, S)
//	(2) L_sys ≤ 5T/2
//	(3) C_sys = B·C_LB + S·C_S
//
// where T is the epoch length, X the offered load, f the Theorem-3 batch
// size and L_net one batch frame's trip over the load balancer–subORAM link.
// All three component latencies come from one CostModel: AnalyticModel's
// closed forms over the implementation's exact operation and frame-byte
// counts, with constants that Calibrate measures on this machine.
package planner

import (
	"fmt"
	"strings"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/ohash"
	"snoopy/internal/wirecode"
)

// Link is the network between a load balancer and a subORAM. The zero Link
// is in-process: a transfer costs nothing.
type Link struct {
	RTT         time.Duration
	BytesPerSec float64
}

// Testbed is the paper's testbed link: 1 Gbps with a 0.5 ms round trip.
var Testbed = Link{RTT: 500 * time.Microsecond, BytesPerSec: 125e6}

// CostModel supplies component processing times.
type CostModel struct {
	// LBTime is the load-balancer time to build batches for r requests
	// across s subORAMs and match their responses.
	LBTime func(r, s int) time.Duration
	// SubTime is the subORAM time to process one batch of the given size
	// against objectsPerSub stored objects.
	SubTime func(batchSize, objectsPerSub int) time.Duration

	link  Link
	block int
}

// Link is the one-way time of a batch frame of the given number of rows:
// half the round trip plus the frame's wirecode.FrameLen bytes at the link's
// bandwidth. It is zero on an in-process link.
func (m CostModel) Link(rows int) time.Duration {
	t := m.link.RTT / 2
	if m.link.BytesPerSec > 0 {
		t += time.Duration(float64(wirecode.FrameLen(rows, m.block)) / m.link.BytesPerSec * 1e9)
	}
	return t
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
// scans. Frames of block-byte objects cross link.
func AnalyticModel(opNs, slotNs, fixedNs float64, block, lambda int, link Link) CostModel {
	lb := func(r, s int) time.Duration {
		return time.Duration(opNs * float64(lbOps(r, s, lambda)))
	}
	sub := func(batchSize, objectsPerSub int) time.Duration {
		g := ohash.GeometryFor(batchSize, objectsPerSub, lambda)
		scan := float64(objectsPerSub) * (fixedNs + slotNs*float64(g.SlotsScannedPerLookup()))
		return time.Duration(opNs*float64(g.BuildCost()+g.ExtractCost()) + scan)
	}
	return CostModel{LBTime: lb, SubTime: sub, link: link, block: block}
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

// Fits is Equation (1): whether an epoch of length t holds the pipeline's
// bottleneck stage when req.MinThroughput requests a second arrive at b load
// balancers in front of s subORAMs. Each load balancer takes r = X·t/b
// requests an epoch and sends every subORAM a batch of α = max(f(r, s), 1)
// rows, and each subORAM serves the b batches one after another, each a
// frame there and a frame back:
//
//	max( LBTime(r, s), b·(SubTime(α, ⌈N/s⌉) + 2·Link(α)) ) ≤ t
func Fits(req Requirements, m CostModel, b, s int, t time.Duration) bool {
	if t <= 0 {
		return false
	}
	r := int(req.MinThroughput * t.Seconds() / float64(b))
	alpha := max(batch.Size(r, s, req.Lambda), 1)
	sub := m.SubTime(alpha, (req.Objects+s-1)/s) + 2*m.Link(alpha)
	return max(m.LBTime(r, s), time.Duration(b)*sub) <= t
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
	// Equation (2): T ≤ 2·L_max/5. Processing time grows sublinearly in T
	// (batch size grows ~T), so if the largest allowed epoch does not fit,
	// none will — except when the per-epoch fixed cost dominates; probe
	// smaller epochs to be sure.
	tMax := time.Duration(2 * float64(req.MaxLatency) / 5)
	for _, frac := range []float64{1, 0.5, 0.25, 0.1} {
		t := time.Duration(float64(tMax) * frac)
		if !Fits(req, m, b, s, t) {
			continue
		}
		r := int(req.MinThroughput * t.Seconds() / float64(b))
		return Plan{
			LoadBalancers: b,
			SubORAMs:      s,
			Epoch:         t,
			AvgLatency:    time.Duration(5 * float64(t) / 2),
			Throughput:    float64(r*b) / t.Seconds(),
		}, true
	}
	return Plan{}, false
}

// MaxThroughput inverts the planner: for a fixed configuration and latency
// budget, it returns the highest offered load (reqs/sec) that Equation (1)
// still satisfies — the quantity plotted on the y-axis of Fig. 9a.
func MaxThroughput(req Requirements, m CostModel, b, s int) float64 {
	if req.Lambda <= 0 {
		req.Lambda = 128
	}
	tEpoch := time.Duration(2 * float64(req.MaxLatency) / 5)
	fits := func(x float64) bool {
		req.MinThroughput = x
		return Fits(req, m, b, s, tEpoch)
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
