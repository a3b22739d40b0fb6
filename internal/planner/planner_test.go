package planner

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/ohash"
	"snoopy/internal/wirecode"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedModel is a deterministic cost model for unit tests: LB time linear
// in requests, subORAM time linear in batch plus objects.
func fixedModel() CostModel {
	return CostModel{
		LBTime: func(r, s int) time.Duration {
			return time.Duration(r) * 10 * time.Microsecond
		},
		SubTime: func(batchSize, objectsPerSub int) time.Duration {
			return time.Duration(batchSize)*20*time.Microsecond +
				time.Duration(objectsPerSub)*time.Microsecond
		},
	}
}

func TestOptimizeFindsFeasiblePlan(t *testing.T) {
	p, err := Optimize(Requirements{
		Objects: 100000, MinThroughput: 2000, MaxLatency: time.Second, Lambda: 128,
	}, fixedModel(), DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadBalancers < 1 || p.SubORAMs < 1 {
		t.Fatalf("degenerate plan: %+v", p)
	}
	if p.AvgLatency > time.Second {
		t.Fatalf("plan violates latency: %+v", p)
	}
	if p.Throughput < 2000*0.99 {
		t.Fatalf("plan below target throughput: %+v", p)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	_, err := Optimize(Requirements{
		Objects: 10_000_000, MinThroughput: 1e12, MaxLatency: time.Millisecond,
		MaxLoadBalancers: 2, MaxSubORAMs: 2,
	}, fixedModel(), DefaultPrices())
	if err == nil {
		t.Fatal("impossible requirements produced a plan")
	}
}

func TestOptimizeInvalidInput(t *testing.T) {
	if _, err := Optimize(Requirements{}, fixedModel(), DefaultPrices()); err == nil {
		t.Fatal("zero requirements accepted")
	}
}

func TestMoreDataNeedsMoreSubORAMs(t *testing.T) {
	// Paper Fig. 14a: larger data sizes shift the optimum toward more
	// subORAMs (the linear scan must be partitioned).
	small, err := Optimize(Requirements{
		Objects: 10_000, MinThroughput: 50_000, MaxLatency: time.Second,
	}, fixedModel(), DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	large, err := Optimize(Requirements{
		Objects: 1_000_000, MinThroughput: 50_000, MaxLatency: time.Second,
	}, fixedModel(), DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if large.SubORAMs <= small.SubORAMs {
		t.Fatalf("1M objects should need more subORAMs than 10K: %d vs %d",
			large.SubORAMs, small.SubORAMs)
	}
	if large.CostPerMonth < small.CostPerMonth {
		t.Fatalf("larger data should not be cheaper: $%.0f vs $%.0f",
			large.CostPerMonth, small.CostPerMonth)
	}
}

func TestHigherThroughputCostsMore(t *testing.T) {
	// Paper Fig. 14b: cost increases with the throughput requirement.
	prev := 0.0
	for _, x := range []float64{5_000, 20_000, 80_000} {
		p, err := Optimize(Requirements{
			Objects: 100_000, MinThroughput: x, MaxLatency: time.Second,
		}, fixedModel(), DefaultPrices())
		if err != nil {
			t.Fatalf("throughput %g: %v", x, err)
		}
		if p.CostPerMonth < prev {
			t.Fatalf("cost decreased as throughput rose: $%.0f after $%.0f", p.CostPerMonth, prev)
		}
		prev = p.CostPerMonth
	}
}

func TestMaxThroughputMonotoneInMachines(t *testing.T) {
	req := Requirements{Objects: 200_000, MaxLatency: time.Second, Lambda: 128}
	m := fixedModel()
	prev := 0.0
	for s := 1; s <= 8; s++ {
		x := MaxThroughput(req, m, 1, s)
		if x < prev {
			t.Fatalf("throughput fell when adding subORAM %d: %g after %g", s, x, prev)
		}
		prev = x
	}
	if prev == 0 {
		t.Fatal("no throughput at 8 subORAMs")
	}
}

// TestPlanGolden pins snoopy-planner's exact recommendation output for a few
// deployments under a fixed analytic model (no calibration). Refresh with
// `go test ./internal/planner -run TestPlanGolden -update` after a deliberate
// cost-model change, and review the diff like any other behavioral change.
func TestPlanGolden(t *testing.T) {
	m := AnalyticModel(8, 1, 6, 160, 128, Link{})
	cases := []struct {
		name string
		req  Requirements
	}{
		{"small-low-load", Requirements{
			Objects: 100_000, MinThroughput: 10_000, MaxLatency: time.Second,
		}},
		{"paper-scale", Requirements{
			Objects: 2_000_000, MinThroughput: 100_000, MaxLatency: time.Second,
			MaxLoadBalancers: 10, MaxSubORAMs: 40,
		}},
		// 1.4 M reqs/s is where one load balancer stops keeping up under
		// this model (at 1 M — the bound before the match stopped sorting
		// the requests — it now does, with one subORAM): infeasible on one
		// plane, bought on the L axis once more planes are allowed.
		{"lb-bound-single-plane", Requirements{
			Objects: 100_000, MinThroughput: 1_400_000, MaxLatency: 200 * time.Millisecond,
			MaxLoadBalancers: 1, MaxSubORAMs: 8,
		}},
		{"lb-bound-more-planes", Requirements{
			Objects: 100_000, MinThroughput: 1_400_000, MaxLatency: 200 * time.Millisecond,
			MaxLoadBalancers: 8, MaxSubORAMs: 8,
		}},
	}
	var buf strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&buf, "%s:\n", c.name)
		p, err := Optimize(c.req, m, DefaultPrices())
		if err != nil {
			fmt.Fprintf(&buf, "  error: %v\n", err)
			continue
		}
		buf.WriteString(p.Format())
	}
	golden := filepath.Join("testdata", "plans.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if buf.String() != string(want) {
		t.Fatalf("planner output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}

// TestSubTimePricesTheGeometryTheSubORAMBuilds: the analytic subORAM time is
// the cost of the very table ohash.GeometryFor shapes for the same public
// (batch size, partition size, λ) — its row operations at opNs, and per
// stored object the fixed cost plus slotNs for each slot a lookup scans —
// so a larger partition is priced at a shorter lookup, not only more of them.
func TestSubTimePricesTheGeometryTheSubORAMBuilds(t *testing.T) {
	const opNs, slotNs, fixedNs = 8.0, 1.0, 6.0
	m := AnalyticModel(opNs, slotNs, fixedNs, 160, 128, Link{})
	for _, s := range [][2]int{{128, 1 << 15}, {845, 1 << 9}, {512, 1 << 13}, {122, 1 << 11}, {1, 1}, {0, 5}} {
		g := ohash.GeometryFor(s[0], s[1], 128)
		want := time.Duration(opNs*float64(g.BuildCost()+g.ExtractCost()) +
			float64(s[1])*(fixedNs+slotNs*float64(g.Z1+g.Z2)))
		if got := m.SubTime(s[0], s[1]); got != want {
			t.Fatalf("SubTime(%d, %d) = %v, the table %+v costs %v", s[0], s[1], got, g, want)
		}
	}
	small, large := ohash.GeometryFor(512, 1<<10, 128), ohash.GeometryFor(512, 1<<20, 128)
	if large.SlotsScannedPerLookup() >= small.SlotsScannedPerLookup() {
		t.Fatalf("a 2²⁰-object partition is scanned at %d slots per lookup, a 2¹⁰-object one at %d",
			large.SlotsScannedPerLookup(), small.SlotsScannedPerLookup())
	}
}

// TestLinkIsTheFrameOnTheWire: a one-way transfer of a batch is half the round
// trip plus the bytes of its wirecode frame at the link's bandwidth, and the
// zero Link, in process, costs nothing.
func TestLinkIsTheFrameOnTheWire(t *testing.T) {
	m := AnalyticModel(8, 1, 6, 160, 128, Testbed)
	for _, rows := range []int{0, 1, 128, 845} {
		// 125 MB/s is 8 ns a byte.
		want := 250*time.Microsecond + time.Duration(8*wirecode.FrameLen(rows, 160))
		if got := m.Link(rows); got < want-1 || got > want+1 {
			t.Fatalf("Link(%d) = %v, the %d-byte frame takes %v", rows, got, wirecode.FrameLen(rows, 160), want)
		}
	}
	if got := AnalyticModel(8, 1, 6, 160, 128, Link{}).Link(845); got != 0 {
		t.Fatalf("an in-process link charges %v", got)
	}
}

// TestFitsIsEquationOne pins the one Eq. 1 predicate against the stage time
// worked out by hand: an epoch fits exactly when it is at least
// max(LBTime(r, s), b·(SubTime(α, ⌈N/s⌉) + 2·Link(α))).
func TestFitsIsEquationOne(t *testing.T) {
	const b, s, r, objects = 2, 4, 500, 1001
	alpha := batch.Size(r, s, 128)
	for _, link := range []Link{{}, {RTT: time.Millisecond, BytesPerSec: 1e7}} {
		m := fixedModel() // LB r·10 µs, subORAM α·20 µs + N/s·1 µs
		m.link, m.block = link, 100
		oneWay := time.Duration(0)
		if link.RTT > 0 { // 10 MB/s is 100 ns a byte
			oneWay = 500*time.Microsecond + time.Duration(100*wirecode.FrameLen(alpha, 100))
		}
		lb := r * 10 * time.Microsecond
		sub := time.Duration(alpha)*20*time.Microsecond + 251*time.Microsecond
		stage := max(lb, b*(sub+2*oneWay))
		for _, c := range []struct {
			t    time.Duration
			fits bool
		}{{stage + time.Microsecond, true}, {stage - time.Microsecond, false}} {
			// The load that gives each load balancer r requests in c.t.
			req := Requirements{Objects: objects, MinThroughput: (r + 0.5) * b / c.t.Seconds(), Lambda: 128}
			if got := Fits(req, m, b, s, c.t); got != c.fits {
				t.Fatalf("link %+v: Fits at %v = %v; by hand the stage takes %v", link, c.t, got, stage)
			}
		}
	}
}

// TestFitsPricesSharedCores: stages that share c cores must also fit their
// summed work, b·LBTime + b·s·SubTime, in c epochs. On one core that term
// binds and the prediction drops. On b + s cores (one per stage) it never
// can, so Fits is Eq. 1 unchanged.
func TestFitsPricesSharedCores(t *testing.T) {
	req := Requirements{Objects: 200_000, MaxLatency: time.Second, Lambda: 128}
	separate := AnalyticModel(8, 1, 6, 160, 128, Link{})
	for _, c := range []struct{ b, s int }{{1, 1}, {1, 4}, {2, 4}, {4, 8}} {
		shared, perStage := separate, separate
		shared.cores, perStage.cores = 1, c.b+c.s
		x := MaxThroughput(req, separate, c.b, c.s)
		if got := MaxThroughput(req, shared, c.b, c.s); !(got < x) {
			t.Fatalf("L=%d S=%d: one shared core sustains %.0f reqs/s, one machine per stage %.0f", c.b, c.s, got, x)
		}
		for _, load := range []float64{x / 4, x / 2, x * 0.99, x * 1.01, 2 * x} {
			req.MinThroughput = load
			for _, epoch := range []time.Duration{50 * time.Millisecond, 400 * time.Millisecond} {
				if Fits(req, perStage, c.b, c.s, epoch) != Fits(req, separate, c.b, c.s, epoch) {
					t.Fatalf("L=%d S=%d at %.0f reqs/s, %v: %d cores change Eq. 1", c.b, c.s, load, epoch, c.b+c.s)
				}
			}
		}
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs real components")
	}
	m, err := Calibrate(160, 128, Link{})
	if err != nil {
		t.Fatal(err)
	}
	if m.cores != runtime.GOMAXPROCS(0) {
		t.Fatalf("an in-process model prices %d shared cores, measured on %d", m.cores, runtime.GOMAXPROCS(0))
	}
	lb := m.LBTime(1000, 4)
	sub := m.SubTime(500, 100_000)
	if lb <= 0 || sub <= 0 {
		t.Fatalf("calibrated model degenerate: lb=%v sub=%v", lb, sub)
	}
	// Sanity: scanning 10× the objects costs more.
	if m.SubTime(500, 1_000_000) <= sub {
		t.Fatal("scan cost not increasing in object count")
	}
}

func TestOptimizeLatency(t *testing.T) {
	m := fixedModel()
	req := Requirements{Objects: 100_000, MinThroughput: 10_000}
	p, err := OptimizeLatency(req, 5000, m, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if p.CostPerMonth > 5000 {
		t.Fatalf("plan over budget: %+v", p)
	}
	if p.AvgLatency <= 0 || p.Epoch <= 0 {
		t.Fatalf("degenerate latency plan: %+v", p)
	}
	// A bigger budget should never yield worse latency.
	p2, err := OptimizeLatency(req, 10000, m, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if p2.AvgLatency > p.AvgLatency {
		t.Fatalf("more budget, worse latency: %v vs %v", p2.AvgLatency, p.AvgLatency)
	}
	// Budget below one machine pair is infeasible.
	if _, err := OptimizeLatency(req, 100, m, DefaultPrices()); err == nil {
		t.Fatal("tiny budget accepted")
	}
	if _, err := OptimizeLatency(Requirements{}, 5000, m, DefaultPrices()); err == nil {
		t.Fatal("zero requirements accepted")
	}
}

func TestOptimizeLatencyRespectsThroughput(t *testing.T) {
	m := fixedModel()
	p, err := OptimizeLatency(Requirements{
		Objects: 50_000, MinThroughput: 30_000,
	}, 8400, m, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	// The chosen epoch must actually sustain the load per Eq. (1).
	r := int(30_000 * p.Epoch.Seconds() / float64(p.LoadBalancers))
	lbT := m.LBTime(r, p.SubORAMs)
	if lbT > p.Epoch {
		t.Fatalf("plan epoch %v cannot fit LB time %v", p.Epoch, lbT)
	}
}
