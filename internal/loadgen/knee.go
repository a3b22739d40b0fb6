package loadgen

import (
	"fmt"
	"time"
)

// KneeProbe is one sustained-throughput probe of a rate search.
type KneeProbe struct {
	Rate      float64 `json:"offered_rps"`
	Achieved  float64 `json:"achieved_rps"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	P999ms    float64 `json:"p999_ms"`
	Sustained bool    `json:"sustained"`
	TimedOut  bool    `json:"timed_out,omitempty"`
}

// Knee is the outcome of a rate search: the bracket around the deployment's
// capacity, plus every probe for the report.
type Knee struct {
	Probes []KneeProbe `json:"probes"`
	// Rate is the sustained-throughput knee in requests/second — the
	// highest probed rate that met both the goodput and the p99 gates. 0
	// if no probe was sustained.
	Rate float64 `json:"knee_rps"`
}

// Failed is the bracket's other end: the lowest probed rate that was not
// sustained, or 0 if every probe was.
func (k Knee) Failed() float64 {
	failed := 0.0
	for _, p := range k.Probes {
		if !p.Sustained && (failed == 0 || p.Rate < failed) {
			failed = p.Rate
		}
	}
	return failed
}

// The search stops once the failed rate is within 10 % above the sustained
// one, and gives up on a deployment still sustaining 2¹⁶× its first rung.
const (
	kneeBracket  = 1.1
	maxDoublings = 16
)

// FindKnee searches for the sustained-throughput knee from one starting
// rate: a probe is sustained when the deployment achieved at least
// goodputFrac of the offered load over the probe's wall time, drain
// included, AND kept open-loop p99 within p99Bound. From start the rate
// doubles until a probe fails, then the [sustained, failed] bracket is
// bisected until its ends are within 10 %. If start itself fails, there is
// no knee: Rate is 0. open builds a fresh store per probe (so queue backlog
// from an overloaded probe cannot poison the next) and returns a cleanup.
func FindKnee(open func() (Store, func(), error), base Config, start float64, p99Bound time.Duration, goodputFrac float64) (Knee, error) {
	if goodputFrac <= 0 || goodputFrac > 1 {
		goodputFrac = 0.9
	}
	var knee Knee
	probe := func(r float64) error {
		st, cleanup, err := open()
		if err != nil {
			return fmt.Errorf("loadgen: open store for %.0f rps probe: %w", r, err)
		}
		cfg := base
		cfg.Rate = r
		rep, err := Run(st, cfg)
		cleanup()
		if err != nil {
			return fmt.Errorf("loadgen: probe at %.0f rps: %w", r, err)
		}
		p99 := time.Duration(rep.Latency.P99 * float64(time.Millisecond))
		sustained := !rep.TimedOut && rep.AchievedRate >= goodputFrac*r && p99 <= p99Bound
		knee.Probes = append(knee.Probes, KneeProbe{
			Rate:      r,
			Achieved:  rep.AchievedRate,
			P50ms:     rep.Latency.P50,
			P99ms:     rep.Latency.P99,
			P999ms:    rep.Latency.P999,
			Sustained: sustained,
			TimedOut:  rep.TimedOut,
		})
		if sustained {
			knee.Rate = r
		}
		return nil
	}
	for r := start; knee.Failed() == 0; r *= 2 {
		if r > start*(1<<maxDoublings) {
			return knee, fmt.Errorf("loadgen: every probe from %.0f to %.0f rps was sustained", start, knee.Rate)
		}
		if err := probe(r); err != nil {
			return knee, err
		}
	}
	for knee.Rate > 0 && knee.Failed() > kneeBracket*knee.Rate {
		if err := probe((knee.Rate + knee.Failed()) / 2); err != nil {
			return knee, err
		}
	}
	return knee, nil
}
