// traffic.go implements `snoopy-bench -traffic`: the open-loop
// million-session traffic harness. It drives the scenario suite
// (internal/loadgen) at a reference offered load against either an
// in-process deployment or a real TCP cluster of snoopy-server processes,
// then sweeps offered rates to locate the sustained-throughput knee and
// compares it against the paper's Eq. 1–2 closed form (internal/planner)
// and the discrete-event simulator (internal/simnet), both built from a
// cost model calibrated on this machine. Results go to a JSON report
// (results/TRAFFIC_<mode>.json via scripts/traffic.sh).
//
// Latency is coordinated-omission-safe: every sample is measured from the
// request's intended send time on the precomputed schedule, so server
// stalls are charged to the server even when they also stall the
// generator (see internal/loadgen).
package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"snoopy"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/loadgen"
	"snoopy/internal/planner"
	"snoopy/internal/simnet"
)

// kneeToleranceFactor is the documented agreement band between the
// measured knee and the simnet prediction: within a factor of 8 each way.
// The simulator prices only the modeled pipeline stages; the harness
// measures end-to-end through client-side goroutine scheduling and the
// epoch ticker's phase, so this is an order-of-magnitude drift alarm, not
// a percentage gate. The exact measured/predicted ratio is recorded in
// the report for trend tracking.
const kneeToleranceFactor = 8.0

type trafficOptions struct {
	out       string
	servers   string // comma-separated TCP subORAM addresses; empty = in-process
	platform  string // shared platform key hex (with -servers)
	scenarios string // comma list of suite scenario names, or "all"
	sessions  int
	rate      float64
	duration  time.Duration
	epoch     time.Duration
	objects   int
	block     int
	lbs       int
	subs      int
	knee      bool
}

type trafficConfig struct {
	Mode      string   `json:"mode"` // "in-process" or "tcp"
	Servers   []string `json:"servers,omitempty"`
	Sessions  int      `json:"sessions"`
	RateRPS   float64  `json:"reference_rate_rps"`
	DurationS float64  `json:"duration_s"`
	EpochMS   float64  `json:"epoch_ms"`
	Objects   int      `json:"objects"`
	Block     int      `json:"block_size"`
	LBs       int      `json:"load_balancers"`
	SubORAMs  int      `json:"suborams"`
}

type trafficPrediction struct {
	// PlannerRPS is the Eq. 1–2 closed-form capacity (MaxLatency pinned
	// to 5T/2 so the epoch equals the deployed epoch).
	PlannerRPS float64 `json:"planner_eq12_rps"`
	// SimnetRPS is the discrete-event simulator's knee for the same
	// calibrated cost model and deployment shape.
	SimnetRPS float64 `json:"simnet_rps"`
	// MeasuredKneeRPS is the open-loop harness's sustained-throughput
	// knee from the rate sweep.
	MeasuredKneeRPS    float64 `json:"measured_knee_rps"`
	MeasuredOverSimnet float64 `json:"measured_over_simnet"`
	ToleranceFactor    float64 `json:"tolerance_factor"`
	WithinTolerance    bool    `json:"within_tolerance"`
}

type trafficReport struct {
	Config    trafficConfig      `json:"config"`
	Scenarios []loadgen.Report   `json:"scenarios"`
	Knee      *loadgen.Knee      `json:"knee,omitempty"`
	Predicted *trafficPrediction `json:"predicted,omitempty"`
}

// trafficOpener returns a factory producing fresh stores: a new in-process
// deployment, or a fresh attested dial of the same TCP cluster (the
// cluster's partitions are re-initialized by LoadSlices on each open, so an
// overloaded probe's backlog cannot poison the next).
func trafficOpener(opt trafficOptions) (func() (loadgen.Store, func(), error), error) {
	ids := make([]uint64, opt.objects)
	data := make([]byte, opt.objects*opt.block)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*opt.block] = byte(i + 1)
	}

	if opt.servers == "" {
		return func() (loadgen.Store, func(), error) {
			st, err := snoopy.Open(snoopy.Config{
				BlockSize:     opt.block,
				LoadBalancers: opt.lbs,
				SubORAMs:      opt.subs,
				Epoch:         opt.epoch,
			})
			if err != nil {
				return nil, nil, err
			}
			if err := st.LoadSlices(ids, data); err != nil {
				st.Close()
				return nil, nil, err
			}
			return st, st.Close, nil
		}, nil
	}

	var key crypt.Key
	raw, err := hex.DecodeString(opt.platform)
	if err != nil || len(raw) != crypt.KeySize {
		return nil, fmt.Errorf("-platform must be %d hex chars (copy it from snoopy-server)", 2*crypt.KeySize)
	}
	copy(key[:], raw)
	platform := enclave.NewPlatformFromKey(key)
	m := snoopy.Measure("snoopy-suboram-v1")
	addrs := strings.Split(opt.servers, ",")
	return func() (loadgen.Store, func(), error) {
		var subs []snoopy.SubORAM
		for _, addr := range addrs {
			sub, err := snoopy.DialSubORAMConfig(strings.TrimSpace(addr), platform, m,
				snoopy.DialConfig{Epoch: opt.epoch})
			if err != nil {
				return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
			}
			subs = append(subs, sub)
		}
		st, err := snoopy.OpenWithSubORAMs(snoopy.Config{
			BlockSize:     opt.block,
			LoadBalancers: opt.lbs,
			Epoch:         opt.epoch,
		}, subs)
		if err != nil {
			return nil, nil, err
		}
		if err := st.LoadSlices(ids, data); err != nil {
			st.Close()
			return nil, nil, err
		}
		return st, st.Close, nil
	}, nil
}

func runTraffic(opt trafficOptions) error {
	open, err := trafficOpener(opt)
	if err != nil {
		return err
	}

	var rep trafficReport
	rep.Config = trafficConfig{
		Mode:      "in-process",
		Sessions:  opt.sessions,
		RateRPS:   opt.rate,
		DurationS: opt.duration.Seconds(),
		EpochMS:   float64(opt.epoch) / float64(time.Millisecond),
		Objects:   opt.objects,
		Block:     opt.block,
		LBs:       opt.lbs,
		SubORAMs:  opt.subs,
	}
	if opt.servers != "" {
		rep.Config.Mode = "tcp"
		rep.Config.Servers = strings.Split(opt.servers, ",")
	}

	// --- Scenario suite at the reference load ---
	suite := loadgen.Suite(opt.epoch)
	if opt.scenarios != "" && opt.scenarios != "all" {
		var picked []loadgen.Scenario
		for _, name := range strings.Split(opt.scenarios, ",") {
			sc, ok := loadgen.Named(strings.TrimSpace(name), opt.epoch)
			if !ok {
				return fmt.Errorf("unknown scenario %q (want one of the suite names)", name)
			}
			picked = append(picked, sc)
		}
		suite = picked
	}
	for i, sc := range suite {
		st, cleanup, err := open()
		if err != nil {
			return fmt.Errorf("open store for scenario %s: %w", sc.Name, err)
		}
		r, err := loadgen.Run(st, loadgen.Config{
			Scenario: sc,
			Sessions: opt.sessions,
			Rate:     opt.rate,
			Duration: opt.duration,
			Objects:  opt.objects,
			Seed:     int64(100 + i),
			Epoch:    opt.epoch,
		})
		cleanup()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if r.TimedOut {
			return fmt.Errorf("scenario %s: drain timed out (%d of %d completed)", sc.Name, r.Completed, r.Submitted)
		}
		if r.Failed > 0 {
			return fmt.Errorf("scenario %s: %d operations failed", sc.Name, r.Failed)
		}
		fmt.Printf("traffic %-16s offered %.0f rps achieved %.0f rps  p50=%.1fms p99=%.1fms p999=%.1fms\n",
			sc.Name, r.OfferedRate, r.AchievedRate, r.Latency.P50, r.Latency.P99, r.Latency.P999)
		rep.Scenarios = append(rep.Scenarios, r)
	}

	// --- Knee sweep vs Eq. 1–2 / simnet prediction ---
	if opt.knee {
		if err := runTrafficKnee(opt, open, &rep); err != nil {
			return err
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(opt.out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(opt.out, append(raw, '\n'), 0o644)
}

func runTrafficKnee(opt trafficOptions, open func() (loadgen.Store, func(), error), rep *trafficReport) error {
	lambda := 128 // core.Config default; public deployment parameter
	fmt.Printf("calibrating cost model (block=%d lambda=%d)...\n", opt.block, lambda)
	model, err := planner.Calibrate(opt.block, lambda, planner.Link{}) // in process
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	plannerRPS := planner.MaxThroughput(planner.Requirements{
		Objects: opt.objects,
		// Pin Eq. 2's latency bound to 5T/2 so the closed form prices
		// exactly the deployed epoch.
		MaxLatency: 5 * opt.epoch / 2,
		Lambda:     lambda,
	}, model, opt.lbs, opt.subs)
	simnetRPS, err := simnet.MaxStableThroughput(simnet.Config{
		LBs: opt.lbs, Subs: opt.subs, Objects: opt.objects, Lambda: lambda,
		Epoch: opt.epoch, Model: model, Epochs: 40, Seed: 1,
	}, 0)
	if err != nil {
		return fmt.Errorf("simnet prediction: %w", err)
	}
	if simnetRPS <= 0 {
		return fmt.Errorf("simnet predicts zero capacity for this deployment shape")
	}
	fmt.Printf("predicted capacity: planner Eq.1-2 %.0f rps, simnet %.0f rps\n", plannerRPS, simnetRPS)

	// Geometric sweep bracketing the prediction. The p99 gate is 5T —
	// twice Eq. 2's 5T/2 bound, leaving room for stochastic queueing right
	// at the knee; the goodput gate requires 90% of the offered load to
	// complete within the run.
	rates := []float64{simnetRPS / 4, simnetRPS / 2, simnetRPS, 2 * simnetRPS}
	base := loadgen.Config{
		Scenario: loadgen.Scenario{Name: "knee-poisson-uniform", WriteFrac: 0.5},
		Sessions: opt.sessions,
		Duration: opt.duration,
		Objects:  opt.objects,
		Seed:     17,
		Epoch:    opt.epoch,
	}
	knee, err := loadgen.FindKnee(open, base, rates, 5*opt.epoch, 0.9)
	if err != nil {
		return fmt.Errorf("knee sweep: %w", err)
	}
	for _, p := range knee.Probes {
		fmt.Printf("knee probe %8.0f rps: achieved %.0f rps p99=%.1fms sustained=%v\n",
			p.Rate, p.Achieved, p.P99ms, p.Sustained)
	}
	ratio := knee.Rate / simnetRPS
	pred := &trafficPrediction{
		PlannerRPS:         plannerRPS,
		SimnetRPS:          simnetRPS,
		MeasuredKneeRPS:    knee.Rate,
		MeasuredOverSimnet: ratio,
		ToleranceFactor:    kneeToleranceFactor,
		WithinTolerance:    ratio >= 1/kneeToleranceFactor && ratio <= kneeToleranceFactor,
	}
	rep.Knee = &knee
	rep.Predicted = pred
	fmt.Printf("measured knee %.0f rps (%.2fx simnet prediction)\n", knee.Rate, ratio)
	if !pred.WithinTolerance {
		return fmt.Errorf("measured knee %.0f rps is outside the %gx tolerance band around the simnet prediction %.0f rps",
			knee.Rate, kneeToleranceFactor, simnetRPS)
	}
	return nil
}
