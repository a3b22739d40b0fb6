// Package simnet is a discrete-event simulator of a Snoopy deployment: L
// load-balancer machines and S subORAM machines exchanging epoch batches,
// fed by Poisson client arrivals. Every cost — each stage's processing time
// and each batch frame's trip over the link — comes from the one
// planner.CostModel that prices the closed-form pipeline equations (paper §6,
// Eq. 1–2), so the simulator checks what the closed form abstracts away:
// queueing and pipelining ("We can pipeline the subORAM and load balancer
// processing", §6).
//
// The simulation is epoch-stepped: stage start times respect both data
// dependencies (batches must arrive before processing) and resource
// availability (a machine runs one stage at a time), which is exactly a
// pipelined schedule. Sustained throughput is the largest arrival rate for
// which the pipeline lag stays bounded.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/planner"
)

// Config describes the simulated deployment and offered load.
type Config struct {
	LBs, Subs int
	Objects   int
	Lambda    int
	Epoch     time.Duration
	Arrival   float64 // offered load, requests/second
	Model     planner.CostModel
	Epochs    int // simulated epochs (default 50)
	Seed      int64
}

func (c *Config) fill() error {
	if c.LBs <= 0 || c.Subs <= 0 || c.Objects <= 0 {
		return fmt.Errorf("simnet: LBs, Subs, Objects must be positive")
	}
	if c.Lambda <= 0 {
		c.Lambda = 128
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("simnet: Epoch must be positive")
	}
	if c.Epochs <= 0 {
		c.Epochs = 50
	}
	if c.Model.LBTime == nil || c.Model.SubTime == nil {
		return fmt.Errorf("simnet: cost model required")
	}
	return nil
}

// Result summarizes a simulation run.
type Result struct {
	Completed   int
	Throughput  float64 // completed requests / simulated duration
	MeanLatency time.Duration
	// Lag is the final pipeline lag (completion time minus epoch close);
	// unbounded growth means the offered load exceeds capacity.
	Lag    time.Duration
	Stable bool
}

// Run simulates the deployment for the configured number of epochs.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	T := cfg.Epoch.Seconds()
	objectsPerSub := (cfg.Objects + cfg.Subs - 1) / cfg.Subs

	lbFree := make([]float64, cfg.LBs) // seconds
	subFree := make([]float64, cfg.Subs)
	perLB := make([]int, cfg.LBs)
	makeDone := make([]float64, cfg.LBs)
	alpha := make([]int, cfg.LBs)
	subT := make([]float64, cfg.LBs)
	respReady := make([]float64, cfg.LBs)
	var latencySum, midLag, endLag float64
	completed := 0

	for k := 0; k < cfg.Epochs; k++ {
		epochClose := float64(k+1) * T
		// Stage 1: each LB builds its batches once the epoch closes and the
		// machine is free. The modelled LBTime covers make+match; split it
		// between the two stages. A Poisson stream split uniformly over the
		// LBs is an independent Poisson stream at each.
		for i := 0; i < cfg.LBs; i++ {
			perLB[i] = poisson(rng, cfg.Arrival*T/float64(cfg.LBs))
			alpha[i] = max(batch.Size(perLB[i], cfg.Subs, cfg.Lambda), 1)
			subT[i] = cfg.Model.SubTime(alpha[i], objectsPerSub).Seconds()
			makeDone[i] = max(epochClose, lbFree[i]) + cfg.Model.LBTime(perLB[i], cfg.Subs).Seconds()/2
			lbFree[i] = makeDone[i]
			respReady[i] = 0
		}

		// Stage 2: each subORAM processes the L batches in LB order; each
		// batch and its responses cross the link as one frame of α rows.
		for s := 0; s < cfg.Subs; s++ {
			for i := 0; i < cfg.LBs; i++ {
				link := cfg.Model.Link(alpha[i]).Seconds()
				done := max(makeDone[i]+link, subFree[s]) + subT[i]
				subFree[s] = done
				respReady[i] = max(respReady[i], done+link)
			}
		}

		// Stage 3: each LB matches once all its responses are in.
		for i := 0; i < cfg.LBs; i++ {
			done := max(respReady[i], lbFree[i]) + cfg.Model.LBTime(perLB[i], cfg.Subs).Seconds()/2
			lbFree[i] = done
			// Requests arrived uniformly within the epoch window, so their
			// mean arrival is the window's midpoint.
			latencySum += float64(perLB[i]) * (done - (float64(k)*T + T/2))
			completed += perLB[i]
			lag := done - epochClose
			if k == cfg.Epochs/2 && lag > midLag {
				midLag = lag
			}
			if k == cfg.Epochs-1 && lag > endLag {
				endLag = lag
			}
		}
	}

	res := Result{Completed: completed}
	dur := float64(cfg.Epochs) * T
	res.Throughput = float64(completed) / dur
	res.Lag = time.Duration(endLag * 1e9)
	// Stable if the pipeline lag stopped growing between the midpoint and
	// the end (allowing one epoch of jitter).
	res.Stable = endLag-midLag < T*float64(cfg.Epochs)/2*0.1 && endLag < 20*T
	if completed > 0 {
		res.MeanLatency = time.Duration(latencySum / float64(completed) * 1e9)
	}
	return res, nil
}

// MaxStableThroughput binary-searches, to 0.1 %, the largest offered load the
// deployment sustains with bounded lag and mean latency within bound.
func MaxStableThroughput(cfg Config, latencyBound time.Duration) (float64, error) {
	if err := cfg.fill(); err != nil {
		return 0, err
	}
	ok := func(x float64) bool {
		c := cfg
		c.Arrival = x
		r, err := Run(c)
		if err != nil {
			return false
		}
		return r.Stable && (latencyBound <= 0 || r.MeanLatency <= latencyBound)
	}
	if !ok(1) {
		return 0, nil
	}
	lo, hi := 1.0, 2.0
	for ok(hi) && hi < 1e9 {
		lo, hi = hi, hi*2
	}
	for hi-lo > lo/1000 {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func poisson(rng *rand.Rand, mean float64) int {
	// Knuth for small means, normal approximation for large.
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := mean + rng.NormFloat64()*math.Sqrt(mean)
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
