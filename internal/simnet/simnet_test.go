package simnet

import (
	"testing"
	"time"

	"snoopy/internal/planner"
)

func testModel() planner.CostModel {
	return planner.CostModel{
		LBTime: func(r, s int) time.Duration {
			return time.Duration(r)*5*time.Microsecond + time.Millisecond
		},
		SubTime: func(batchSize, objectsPerSub int) time.Duration {
			return time.Duration(batchSize)*10*time.Microsecond +
				time.Duration(objectsPerSub)*100*time.Nanosecond
		},
	}
}

func baseConfig(arrival float64) Config {
	return Config{
		LBs: 2, Subs: 4, Objects: 100_000, Lambda: 64,
		Epoch: 100 * time.Millisecond, Arrival: arrival,
		Model: testModel(), Epochs: 60, Seed: 1,
	}
}

func TestLowLoadStableWithModelLatency(t *testing.T) {
	r, err := Run(baseConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stable {
		t.Fatalf("low load unstable: %+v", r)
	}
	if r.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// At low load, mean latency ≈ T/2 (wait) + processing ≈ a bit over
	// half an epoch; certainly under 2.5T (Eq. 2's bound).
	if r.MeanLatency > 250*time.Millisecond {
		t.Fatalf("low-load latency too high: %v", r.MeanLatency)
	}
	if r.MeanLatency < 50*time.Millisecond {
		t.Fatalf("latency below the epoch-wait floor: %v", r.MeanLatency)
	}
}

func TestOverloadDetected(t *testing.T) {
	// The subORAM scan takes 10ms + batch cost; at absurd arrival rates the
	// per-epoch work exceeds the epoch and lag must grow.
	cfg := baseConfig(5_000_000)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stable {
		t.Fatalf("overload not detected: %+v", r)
	}
}

func TestMaxStableThroughputMonotoneInMachines(t *testing.T) {
	prev := 0.0
	for _, subs := range []int{2, 4, 8} {
		cfg := baseConfig(0)
		cfg.Subs = subs
		cfg.Epochs = 40
		x, err := MaxStableThroughput(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if x < prev*0.9 { // allow binary-search noise
			t.Fatalf("throughput fell with more subORAMs: %g after %g", x, prev)
		}
		prev = x
	}
	if prev <= 0 {
		t.Fatal("no sustainable throughput found")
	}
}

func TestSimulatorAgreesWithClosedForm(t *testing.T) {
	// The simulated capacity should be within ~3x of the planner's
	// closed-form MaxThroughput for the same model (the closed form
	// ignores queueing, the simulator ignores nothing; they must agree on
	// order of magnitude and direction) — in process, and with every batch
	// frame crossing the paper's testbed link both ways.
	for _, m := range []planner.CostModel{testModel(), planner.AnalyticModel(8, 1, 6, 160, 64, planner.Testbed)} {
		cfg := baseConfig(0)
		cfg.Model = m
		sim, err := MaxStableThroughput(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		req := planner.Requirements{
			Objects:    cfg.Objects,
			MaxLatency: 250 * time.Millisecond, // epoch 100ms = 2/5 of this
			Lambda:     cfg.Lambda,
		}
		closed := planner.MaxThroughput(req, cfg.Model, cfg.LBs, cfg.Subs)
		if closed <= 0 || sim <= 0 {
			t.Fatalf("degenerate: sim=%g closed=%g", sim, closed)
		}
		ratio := sim / closed
		if ratio < 0.3 || ratio > 3.5 {
			t.Fatalf("simulator and closed form diverge: sim=%g closed=%g ratio=%.2f", sim, closed, ratio)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := baseConfig(100)
	cfg.Model = planner.CostModel{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing model accepted")
	}
}
