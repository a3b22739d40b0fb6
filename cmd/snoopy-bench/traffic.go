// traffic.go implements `snoopy-bench -traffic`: the open-loop
// million-session traffic harness. It drives the scenario suite
// (internal/loadgen) at a reference offered load against either an
// in-process deployment or a real TCP cluster of snoopy-server processes,
// then searches offered rates upward from that load for the
// sustained-throughput knee and compares it with the paper's Eq. 1
// (internal/planner) over a cost model calibrated on this machine. Results
// go to a JSON report (results/TRAFFIC_<mode>.json via scripts/traffic.sh).
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
	"slices"
	"strings"
	"time"

	"snoopy"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/loadgen"
	"snoopy/internal/planner"
)

// kneeToleranceFactor is the documented agreement band between the
// measured knee and the Eq. 1 prediction: within a factor of 8 each way.
// Eq. 1 prices only the modeled pipeline stages; the harness measures end
// to end, with the load generator and the submit/reply path sharing the
// cores, so this is an order-of-magnitude drift alarm, not a percentage
// gate. The exact measured/predicted ratio is recorded in the report for
// trend tracking.
const kneeToleranceFactor = 8.0

// calibrations is how many cost models the prediction is the median of:
// one calibration is a single draw from a spread wider than ±15 %.
const calibrations = 5

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
	// PredictedRPS is Eq. 1's capacity (MaxLatency pinned to 5T/2 so the
	// epoch equals the deployed epoch), the median over the calibrations;
	// PredictedMinRPS and PredictedMaxRPS are their extremes.
	PredictedRPS    float64 `json:"predicted_rps"`
	PredictedMinRPS float64 `json:"predicted_min_rps"`
	PredictedMaxRPS float64 `json:"predicted_max_rps"`
	// MeasuredKneeRPS is the open-loop harness's sustained-throughput
	// knee from the rate search.
	MeasuredKneeRPS       float64 `json:"measured_knee_rps"`
	MeasuredOverPredicted float64 `json:"measured_over_predicted"`
	ToleranceFactor       float64 `json:"tolerance_factor"`
	WithinTolerance       bool    `json:"within_tolerance"`
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
			i := slices.IndexFunc(suite, func(sc loadgen.Scenario) bool { return sc.Name == strings.TrimSpace(name) })
			if i < 0 {
				return fmt.Errorf("unknown scenario %q (want one of the suite names)", name)
			}
			picked = append(picked, suite[i])
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

	// --- Knee search vs the Eq. 1 prediction ---
	if opt.knee {
		if err := runTrafficKnee(opt, open, &rep); err != nil {
			return err
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(opt.out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(opt.out, append(raw, '\n'), 0o644)
}

func runTrafficKnee(opt trafficOptions, open func() (loadgen.Store, func(), error), rep *trafficReport) error {
	lambda := 128 // core.Config default; public deployment parameter
	fmt.Printf("calibrating the cost model %d times (block=%d lambda=%d)...\n", calibrations, opt.block, lambda)
	predictions := make([]float64, calibrations)
	for i := range predictions {
		model, err := planner.Calibrate(opt.block, lambda, planner.Link{}) // in process
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		predictions[i] = planner.MaxThroughput(planner.Requirements{
			Objects: opt.objects,
			// Pin Eq. 2's latency bound to 5T/2 so the closed form prices
			// exactly the deployed epoch.
			MaxLatency: 5 * opt.epoch / 2,
			Lambda:     lambda,
		}, model, opt.lbs, opt.subs)
	}
	slices.Sort(predictions)
	predicted := predictions[calibrations/2]
	if predicted <= 0 {
		return fmt.Errorf("Eq. 1 predicts zero capacity for this deployment shape")
	}
	fmt.Printf("predicted capacity: Eq. 1 %.0f rps (median of %d calibrations, %.0f-%.0f)\n",
		predicted, calibrations, predictions[0], predictions[calibrations-1])

	// The search starts at the reference load the scenario suite just
	// sustained. The p99 gate is 5T — twice Eq. 2's 5T/2 bound, leaving
	// room for stochastic queueing right at the knee; the goodput gate
	// requires 90% of the offered load to complete per second of the
	// probe's wall time.
	base := loadgen.Config{
		Scenario: loadgen.Scenario{Name: "knee-poisson-uniform", WriteFrac: 0.5},
		Sessions: opt.sessions,
		Duration: opt.duration,
		Objects:  opt.objects,
		Seed:     17,
		Epoch:    opt.epoch,
	}
	knee, err := loadgen.FindKnee(open, base, opt.rate, 5*opt.epoch, 0.9)
	if err != nil {
		return fmt.Errorf("knee search: %w", err)
	}
	for _, p := range knee.Probes {
		fmt.Printf("knee probe %8.0f rps: achieved %.0f rps p99=%.1fms sustained=%v\n",
			p.Rate, p.Achieved, p.P99ms, p.Sustained)
	}
	ratio := knee.Rate / predicted
	pred := &trafficPrediction{
		PredictedRPS:          predicted,
		PredictedMinRPS:       predictions[0],
		PredictedMaxRPS:       predictions[calibrations-1],
		MeasuredKneeRPS:       knee.Rate,
		MeasuredOverPredicted: ratio,
		ToleranceFactor:       kneeToleranceFactor,
		WithinTolerance:       ratio >= 1/kneeToleranceFactor && ratio <= kneeToleranceFactor,
	}
	rep.Knee = &knee
	rep.Predicted = pred
	fmt.Printf("measured knee %.0f rps, failed at %.0f rps (%.2fx the Eq. 1 prediction)\n", knee.Rate, knee.Failed(), ratio)
	if !pred.WithinTolerance {
		return fmt.Errorf("measured knee %.0f rps is outside the %gx tolerance band around the Eq. 1 prediction %.0f rps",
			knee.Rate, kneeToleranceFactor, predicted)
	}
	return nil
}
