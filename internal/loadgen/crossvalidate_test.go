package loadgen_test

import (
	"testing"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/loadgen"
	"snoopy/internal/planner"
	"snoopy/internal/simnet"
)

// TestKneeCrossValidatesSimnet ties the two capacity estimators to each
// other at one (L, S, λ, arrival) point: the discrete-event simulator's
// predicted knee (which itself agrees with the paper's Eq. 1–2 closed form
// — see simnet's TestSimulatorAgreesWithClosedForm) and the open-loop
// harness's measured knee over the real in-process deployment, both built
// from the same calibrated cost model.
//
// Tolerance band: one order of magnitude each way (measured knee within
// [predicted/8, predicted×8]). The simulator prices only the modeled
// stages with no client-side costs, while the harness measures end-to-end
// through goroutine scheduling, the epoch ticker's phase, and allocator
// noise on a shared CI machine — agreement here is about catching
// order-of-magnitude planner/simulator drift, not percentage error. The
// traffic harness (scripts/traffic.sh full) records the exact
// measured-vs-predicted ratio in its report.
func TestKneeCrossValidatesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweeps real-time probes; skipped in -short")
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
	predicted, err := simnet.MaxStableThroughput(simnet.Config{
		LBs: lbs, Subs: subs, Objects: objects, Lambda: lambda,
		Epoch: epoch, Model: model, Epochs: 40, Seed: 1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if predicted <= 0 {
		t.Fatal("simnet predicts zero capacity")
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
		Duration: 1500 * time.Millisecond,
		Objects:  256,
		Seed:     5,
		Epoch:    epoch,
	}
	// Two probes bracket the band: predicted/8 must sustain (the system
	// cannot be 8× slower than its own model says) and predicted×8 must
	// not (nor 8× faster).
	lo, hi := predicted/8, predicted*8
	if lo < 50 {
		lo = 50
	}
	knee, err := loadgen.FindKnee(open, base, []float64{lo, hi},
		3*epoch, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if knee.Rate < lo {
		t.Fatalf("measured knee %.0f rps below predicted/8 = %.0f rps (simnet predicts %.0f): %+v",
			knee.Rate, lo, predicted, knee.Probes)
	}
	if knee.Rate >= hi {
		t.Fatalf("deployment sustained %.0f rps, 8x the simnet prediction %.0f — model drift: %+v",
			knee.Rate, predicted, knee.Probes)
	}
}
