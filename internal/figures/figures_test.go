package figures

import (
	"strings"
	"testing"
	"time"

	"snoopy/internal/planner"
)

// tinyScale keeps figure smoke tests fast.
func tinyScale() Scale {
	return Scale{Objects: 1 << 12, Block: 32, KTUsers: 1 << 10, Workers: 2, Lambda: 64}
}

func TestAnalyticFigures(t *testing.T) {
	var b strings.Builder
	Fig3(&b, tinyScale())
	Fig4(&b, tinyScale())
	Table8(&b)
	out := b.String()
	for _, want := range []string{"Figure 3", "Figure 4", "Table 8", "S=20", "no-security", "Snoopy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// fixedModel is a deterministic stand-in for planner.Calibrate's model: the
// analytic model at fixed constants, every frame over the testbed link.
func fixedModel(sc Scale) planner.CostModel {
	return planner.AnalyticModel(8, 1, 6, sc.Block, sc.Lambda, planner.Testbed)
}

func TestBestSplitPrefersFeasible(t *testing.T) {
	sc := tinyScale()
	m := fixedModel(sc)
	req := planner.Requirements{Objects: 1 << 14, MaxLatency: time.Second, Lambda: sc.Lambda}
	p := bestSplit(req, m, 6)
	if p.lbs < 1 || p.subs < 1 || p.lbs+p.subs != 6 || p.x <= 0 {
		t.Fatalf("bad split: %+v", p)
	}
	if p12 := bestSplit(req, m, 12); p12.x < p.x {
		t.Fatalf("throughput fell with more machines: %+v -> %+v", p, p12)
	}
}

// TestFig9aThroughputGrowsWithMachines: under every latency bound, the best
// split's throughput never falls as machines are added.
func TestFig9aThroughputGrowsWithMachines(t *testing.T) {
	sc := tinyScale()
	rows := fig9a(sc.Objects, sc.Lambda, fixedModel(sc))
	for j, bound := range latencyBounds {
		for i := range rows {
			if rows[i][j].x <= 0 || i > 0 && rows[i][j].x < rows[i-1][j].x {
				t.Fatalf("@%v: %d machines give %+v after %+v", bound, machineCounts[i], rows[i][j], rows[max(i-1, 0)][j])
			}
		}
	}
}

// TestFig9aSimWithinTwiceClosedForm is Fig. 9a-sim's own claim: at every
// machine count the simulated cluster sustains within 2× of the closed form.
func TestFig9aSimWithinTwiceClosedForm(t *testing.T) {
	sc := tinyScale()
	for i, row := range fig9aSim(sc.Objects, sc.Lambda, fixedModel(sc)) {
		if ratio := row[0].x / row[1].x; !(ratio >= 0.5 && ratio <= 2) {
			t.Fatalf("%d machines: simulated %+v, closed form %+v", machineCounts[i], row[0], row[1])
		}
	}
}

// TestFig11Shapes: more subORAMs hold more objects at the latency bound
// (11a) and answer no slower at a fixed size (11b).
func TestFig11Shapes(t *testing.T) {
	sc := tinyScale()
	m := fixedModel(sc)
	objects, latency := fig11a(sc.Lambda, m), fig11b(sc.Objects, sc.Lambda, m)
	for s := 1; s < fig11Subs; s++ {
		if objects[s] < objects[s-1] || objects[0] <= 0 {
			t.Fatalf("11a: %d subORAMs hold %d objects, %d hold %d", s+1, objects[s], s, objects[s-1])
		}
		if latency[s] > latency[s-1] || latency[s] <= 0 {
			t.Fatalf("11b: %d subORAMs answer in %v, %d in %v", s+1, latency[s], s, latency[s-1])
		}
	}
}

// TestFig14Shapes: at each throughput target the larger store needs at least
// as many subORAMs, and at each size cost never falls as the target rises.
func TestFig14Shapes(t *testing.T) {
	sc := tinyScale()
	rows := fig14(sc.Lambda, fixedModel(sc))
	half := len(rows) / 2
	for i, r := range rows {
		if r.err != nil {
			t.Fatalf("%d objects at %.0f rps: %v", r.objects, r.x, r.err)
		}
		if i < half && rows[i+half].plan.SubORAMs < r.plan.SubORAMs {
			t.Fatalf("at %.0f rps: %+v for %d objects, %+v for %d", r.x, rows[i+half].plan, rows[i+half].objects, r.plan, r.objects)
		}
		if i%half > 0 && r.plan.CostPerMonth < rows[i-1].plan.CostPerMonth {
			t.Fatalf("%d objects: $%.0f at %.0f rps after $%.0f at %.0f", r.objects, r.plan.CostPerMonth, r.x, rows[i-1].plan.CostPerMonth, rows[i-1].x)
		}
	}
}

func TestFig12And13Run(t *testing.T) {
	if testing.Short() {
		t.Skip("measured figures")
	}
	var b strings.Builder
	sc := tinyScale()
	Fig12(&b, sc)
	Fig13a(&b, sc)
	Fig13b(&b, sc)
	if !strings.Contains(b.String(), "make batch") || !strings.Contains(b.String(), "adaptive") ||
		!strings.Contains(b.String(), "4 threads") {
		t.Fatalf("figure output malformed:\n%s", b.String())
	}
}

func TestBaselineMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("measured baselines")
	}
	x, lat := measureObladi(1<<10, 32)
	if x <= 0 || lat <= 0 {
		t.Fatal("obladi measurement degenerate")
	}
	x2, lat2 := measureOblix(1<<10, 32)
	if x2 <= 0 || lat2 <= 0 {
		t.Fatal("oblix measurement degenerate")
	}
	// Oblix is sequential: per-request latency low, throughput low.
	if x2 > x*100 {
		t.Fatalf("oblix throughput suspiciously high: %f vs obladi %f", x2, x)
	}
}
