package loadgen_test

import (
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/loadgen"
	"snoopy/internal/planner"
)

// TestKneeCrossValidatesModel ties the capacity the paper's Eq. 1 predicts
// (planner.Fits over a cost model calibrated in this process, its stages
// sharing this process's cores) to the knee the open-loop harness measures
// over the real in-process deployment at one (L, S, λ) point.
//
// Tolerance band: one order of magnitude each way. The search starts at
// predicted/8, which must sustain (the system cannot be 8× slower than its
// own model says), and its first failing rung must lie below predicted×8
// (nor 8× faster). Eq. 1 prices only the modeled stages, not the load
// generator or the submit/reply path that share the cores with them, so
// the band catches order-of-magnitude drift, not percentage error. The
// traffic harness (scripts/traffic.sh full) records the exact
// measured-vs-predicted ratio in its report.
func TestKneeCrossValidatesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation searches real-time probes; skipped in -short")
	}
	const (
		lbs     = 1
		subs    = 2
		objects = 1 << 12
		block   = 64
		lambda  = 64
		epoch   = 50 * time.Millisecond
	)
	model, err := planner.Calibrate(block, lambda, planner.Link{}) // in process
	if err != nil {
		t.Fatal(err)
	}
	predicted := planner.MaxThroughput(planner.Requirements{
		Objects: objects, MaxLatency: 5 * epoch / 2, Lambda: lambda,
	}, model, lbs, subs)
	if predicted <= 0 {
		t.Fatal("Eq. 1 predicts zero capacity")
	}

	open := func() (loadgen.Store, func(), error) {
		sys, err := core.NewLocal(core.Config{
			BlockSize:        block,
			NumLoadBalancers: lbs,
			NumSubORAMs:      subs,
			Lambda:           lambda,
			EpochDuration:    epoch,
		})
		if err != nil {
			return nil, nil, err
		}
		const n = 256
		ids := make([]uint64, n)
		data := make([]byte, n*block)
		for i := range ids {
			ids[i] = uint64(i)
		}
		if err := sys.Init(ids, data); err != nil {
			sys.Close()
			return nil, nil, err
		}
		return coreStore{sys}, func() { sys.Close() }, nil
	}

	base := loadgen.Config{
		Scenario: loadgen.Scenario{Name: "xval", WriteFrac: 0.5},
		Sessions: 1000,
		Duration: 400 * time.Millisecond,
		Objects:  256,
		Seed:     5,
		Epoch:    epoch,
	}
	lo, hi := max(predicted/8, 50), predicted*8
	knee, err := loadgen.FindKnee(open, base, lo, 3*epoch, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if knee.Rate < lo {
		t.Fatalf("predicted/8 = %.0f rps not sustained (Eq. 1 predicts %.0f): %+v", lo, predicted, knee.Probes)
	}
	if knee.Failed() >= hi {
		t.Fatalf("deployment sustained %.0f rps, 8x the Eq. 1 prediction %.0f — model drift: %+v",
			knee.Rate, predicted, knee.Probes)
	}
	t.Logf("Eq. 1 predicts %.0f rps; measured knee %.0f rps, failed at %.0f (%d probes)", predicted, knee.Rate, knee.Failed(), len(knee.Probes))
}
