// Package loadgen is an open-loop traffic generator for Snoopy
// deployments: it simulates 10⁵–10⁶ client sessions issuing requests on a
// precomputed arrival schedule (Poisson, bursty, or diurnal; uniform,
// Zipfian, or hot-key-storm key choice; read/write/update mixes; session
// churn and slow-reply clients), driving either the in-process store or a
// store opened over a real TCP cluster through the same three-method
// surface.
//
// Open-loop means the generator never waits for a response before sending
// the next request: the schedule is fixed before the run starts, and every
// latency sample is measured from the request's *intended* send time, not
// from whenever the harness actually managed to send it. This is the
// coordinated-omission-safe discipline (Tene's critique of closed-loop
// benchmarks): if the system stalls for ten epochs, the requests that
// should have been sent during the stall still charge the stall to the
// system instead of silently rescheduling themselves after it.
//
// The whole schedule is a deterministic function of Config.Seed. Two
// configs that differ only in key pattern (the secret input) produce
// byte-identical arrival schedules — the property the workload-independence
// soak in this package's tests leans on: an oblivious deployment must
// produce indistinguishable epoch schedules and telemetry across them,
// while the plaintext baseline's per-shard load visibly diverges.
package loadgen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"snoopy/internal/metrics"
	"snoopy/internal/workload"
)

// Store is the driven surface: the async submit half of a Snoopy
// deployment. *snoopy.Store (in-process or over dialed TCP subORAMs)
// satisfies it. Flush is used only in virtual-time mode;
// real-time runs rely on the store's own epoch ticker.
type Store interface {
	ReadAsync(key uint64) (func() ([]byte, bool, error), error)
	WriteAsync(key uint64, value []byte) (func() ([]byte, bool, error), error)
	Flush()
}

// Clock is the open loop's time source: it paces the schedule and stamps
// every latency sample. A Store that is also a Clock runs in its own time —
// a test fake's simulated one, under which a run depends on the seed alone;
// any other Store runs on the wall clock.
type Clock interface {
	Now() time.Time
	// SleepUntil returns once the clock reads t or later.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// ArrivalShape selects the arrival schedule family.
type ArrivalShape string

const (
	// ArrivalPoisson is a constant-rate Poisson process.
	ArrivalPoisson ArrivalShape = "poisson"
	// ArrivalBursty alternates quiet and BurstFactor× phases every
	// BurstPeriod while keeping the configured mean rate.
	ArrivalBursty ArrivalShape = "bursty"
	// ArrivalDiurnal modulates the rate sinusoidally over the run (a
	// compressed day) with peak/trough ratio BurstFactor.
	ArrivalDiurnal ArrivalShape = "diurnal"
)

// KeyPattern selects how sessions choose keys — the secret input.
type KeyPattern string

const (
	// KeysUniform draws keys uniformly over the object set.
	KeysUniform KeyPattern = "uniform"
	// KeysZipf draws keys Zipf(ZipfS)-skewed (paper §4.1's dedup-defused
	// workload).
	KeysZipf KeyPattern = "zipf"
	// KeysHot sends fraction HotFrac of requests to one hot key — the
	// hot-key-storm scenario.
	KeysHot KeyPattern = "hotkey"
)

// Scenario describes one traffic pattern of the suite. The zero value of
// each knob picks a sensible default (see fill).
type Scenario struct {
	Name    string       `json:"name"`
	Arrival ArrivalShape `json:"arrival"`
	Keys    KeyPattern   `json:"keys"`
	// ZipfS is the Zipf skew for KeysZipf (default 1.1).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// HotFrac is the hot-key fraction for KeysHot (default 0.9).
	HotFrac float64 `json:"hot_frac,omitempty"`
	// WriteFrac is the blind-write fraction of operations.
	WriteFrac float64 `json:"write_frac"`
	// UpdateFrac is the fraction of non-write operations that are
	// read-modify-write pairs: a read and a dependent write of the same
	// key submitted into the same epoch (two store operations).
	UpdateFrac float64 `json:"update_frac,omitempty"`
	// BurstFactor is the peak/quiet (bursty) or peak/trough (diurnal)
	// rate ratio (default 8 bursty, 4 diurnal).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstPeriod is the bursty cycle length in seconds (default 1).
	BurstPeriod float64 `json:"burst_period,omitempty"`
	// ChurnFrac is the fraction of the session population replaced per
	// second: sessions disconnect and new ones join at this rate.
	ChurnFrac float64 `json:"churn_frac,omitempty"`
	// SlowFrac is the fraction of sessions that are slow clients: they
	// collect their replies only SlowDelay after submitting. Their
	// completions are counted separately and must not perturb the epoch
	// schedule or the fast sessions' latency.
	SlowFrac float64 `json:"slow_frac,omitempty"`
	// SlowDelay is how late a slow session collects replies (default
	// 50ms).
	SlowDelay time.Duration `json:"slow_delay_ns,omitempty"`
}

func (s *Scenario) fill() {
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	if s.Keys == "" {
		s.Keys = KeysUniform
	}
	if s.ZipfS <= 1 {
		// rand.NewZipf requires s > 1; the canonical skew is 1.1.
		s.ZipfS = 1.1
	}
	if s.HotFrac == 0 {
		s.HotFrac = 0.9
	}
	if s.BurstFactor == 0 {
		if s.Arrival == ArrivalDiurnal {
			s.BurstFactor = 4
		} else {
			s.BurstFactor = 8
		}
	}
	if s.BurstPeriod == 0 {
		s.BurstPeriod = 1
	}
	if s.SlowDelay == 0 {
		s.SlowDelay = 50 * time.Millisecond
	}
}

// Config is one load-generation run.
type Config struct {
	Scenario Scenario
	// Sessions is the simulated client-session population (each arrival
	// is attributed to one active session).
	Sessions int
	// Rate is the mean offered load in requests/second.
	Rate float64
	// Duration is the modeled schedule length.
	Duration time.Duration
	// Objects is the key space [0, Objects).
	Objects int
	// Seed makes the whole schedule deterministic.
	Seed int64
	// Epoch is the epoch quantum: virtual-time runs flush once per
	// quantum, and per-epoch request counts are reported against it.
	Epoch time.Duration
	// Virtual runs in virtual time: arrivals are grouped by epoch index,
	// each group is submitted back-to-back and flushed explicitly, and
	// completions are awaited before the next epoch. Deterministic
	// (modulo wall-clock latency values) — the mode the leakage soak and
	// the chaos-style tests use. Real-time mode (false) paces arrivals on
	// the wall clock against a store running its own epoch ticker.
	Virtual bool
	// MaxInFlight bounds outstanding completion waiters (default 65536).
	// When the bound is hit the dispatcher blocks — the send happens
	// late, but the intended send time still anchors the latency sample,
	// so the backpressure cannot hide server stalls.
	MaxInFlight int
	// DrainTimeout bounds waiting for stragglers after the last arrival
	// (default 2×Duration + 20×Epoch + 2s). On expiry the run reports
	// TimedOut with the completions it has.
	DrainTimeout time.Duration
}

func (c *Config) fill() error {
	c.Scenario.fill()
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.Objects <= 0 {
		return fmt.Errorf("loadgen: Objects must be positive")
	}
	if c.Rate <= 0 || c.Duration <= 0 {
		return fmt.Errorf("loadgen: Rate and Duration must be positive")
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("loadgen: Epoch quantum must be positive")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1 << 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2*c.Duration + 20*c.Epoch + 2*time.Second
	}
	return nil
}

// Event is one scheduled request of a plan.
type Event struct {
	// At is the intended send offset from the run start.
	At time.Duration
	// Session is the issuing session's id (ids ≥ Config.Sessions are
	// churned-in replacements).
	Session int32
	// Write marks a blind write; Update marks a read-modify-write pair
	// (the read at At, plus a dependent write submitted with it).
	Write  bool
	Update bool
	// Slow marks a slow-client session's request.
	Slow bool
	// Key is the chosen object key.
	Key uint64
}

// PlanInfo summarizes a plan's public shape.
type PlanInfo struct {
	// DistinctSessions counts every session id that existed during the
	// run, including churned-in replacements.
	DistinctSessions int
	// EpochRequests is the number of store operations falling into each
	// epoch quantum — the public arrival schedule the oblivious system's
	// epoch schedule must be a function of.
	EpochRequests []int
	// Ops is the total store-operation count (updates count twice).
	Ops int
}

// Plan deterministically expands cfg into its request schedule. Arrival
// times, session attribution, op mix, churn, and slow-client assignment
// draw from one rng seeded with Seed; key choice draws from an independent
// rng derived from Seed — so two configs differing only in KeyPattern (the
// secret) produce identical arrival schedules with different keys.
func Plan(cfg Config) ([]Event, PlanInfo, error) {
	if err := cfg.fill(); err != nil {
		return nil, PlanInfo{}, err
	}
	sc := cfg.Scenario
	arrRng := rand.New(rand.NewSource(cfg.Seed))
	keyRng := rand.New(rand.NewSource(int64(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15)))

	secs := cfg.Duration.Seconds()
	var sched []workload.Burst
	switch sc.Arrival {
	case ArrivalBursty:
		sched = workload.BurstySchedule(cfg.Rate, sc.BurstFactor, sc.BurstPeriod, 0.2, secs)
	case ArrivalDiurnal:
		sched = workload.DiurnalSchedule(cfg.Rate, sc.BurstFactor, secs, 8)
	default:
		sched = workload.Steady(cfg.Rate, secs)
	}
	times := workload.Arrivals(arrRng, sched)

	var chooser workload.KeyChooser
	switch sc.Keys {
	case KeysZipf:
		chooser = workload.Zipf(cfg.Objects, sc.ZipfS)
	case KeysHot:
		chooser = workload.Hotspot(cfg.Objects, sc.HotFrac)
	default:
		chooser = workload.Uniform(cfg.Objects)
	}

	// Churn instants: Poisson at ChurnFrac × Sessions replacements/second,
	// drawn from the arrival rng after the arrival schedule (one extra
	// draw sequence, same for every key pattern).
	var churn []float64
	if sc.ChurnFrac > 0 {
		churn = workload.Arrivals(arrRng, workload.Steady(sc.ChurnFrac*float64(cfg.Sessions), secs))
	}

	active := make([]int32, cfg.Sessions)
	for i := range active {
		active[i] = int32(i)
	}
	nextID := int32(cfg.Sessions)
	slow := func(id int32) bool {
		if sc.SlowFrac <= 0 {
			return false
		}
		// Deterministic per-session assignment, independent of both rngs.
		x := uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		x ^= x >> 29
		return float64(x%1_000_000)/1_000_000 < sc.SlowFrac
	}

	epochSec := cfg.Epoch.Seconds()
	epochs := int(secs/epochSec + 0.5)
	if epochs < 1 {
		epochs = 1
	}
	info := PlanInfo{EpochRequests: make([]int, epochs)}
	events := make([]Event, 0, len(times))
	ci := 0
	for _, at := range times {
		for ci < len(churn) && churn[ci] <= at {
			active[arrRng.Intn(len(active))] = nextID
			nextID++
			ci++
		}
		sid := active[arrRng.Intn(len(active))]
		write := arrRng.Float64() < sc.WriteFrac
		update := false
		if !write && sc.UpdateFrac > 0 {
			update = arrRng.Float64() < sc.UpdateFrac
		}
		ev := Event{
			At:      time.Duration(at * float64(time.Second)),
			Session: sid,
			Write:   write,
			Update:  update,
			Slow:    slow(sid),
			Key:     chooser(keyRng),
		}
		events = append(events, ev)
		e := int(at / epochSec)
		if e >= epochs {
			e = epochs - 1
		}
		n := 1
		if update {
			n = 2
		}
		info.EpochRequests[e] += n
		info.Ops += n
	}
	info.DistinctSessions = int(nextID)
	return events, info, nil
}

// LatencyMillis is a latency distribution summary in milliseconds.
type LatencyMillis struct {
	Mean float64 `json:"mean_ms"`
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

func toMillis(s metrics.LatencySnapshot) LatencyMillis {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyMillis{Mean: ms(s.Mean), P50: ms(s.P50), P99: ms(s.P99), P999: ms(s.P999), Max: ms(s.Max)}
}

// Report is the outcome of one run.
type Report struct {
	Scenario         string  `json:"scenario"`
	Sessions         int     `json:"sessions"`
	DistinctSessions int     `json:"distinct_sessions"`
	OfferedRate      float64 `json:"offered_rps"`
	AchievedRate     float64 `json:"achieved_rps"`
	Submitted        int     `json:"submitted"`
	Completed        int     `json:"completed"`
	Failed           int     `json:"failed"`
	SlowCompleted    int     `json:"slow_completed,omitempty"`
	Epochs           int     `json:"epochs"`
	// EpochRequests is populated in virtual mode (the deterministic
	// public schedule); omitted in real-time mode to keep reports small.
	EpochRequests []int   `json:"epoch_requests,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	TimedOut      bool    `json:"timed_out,omitempty"`
	// Latency is the fast-session distribution, measured from intended
	// send times (coordinated-omission-safe). Slow sessions' samples are
	// excluded — their delay is client-side by construction.
	Latency LatencyMillis `json:"latency"`
}

// value derives a deterministic 8-byte write payload.
func value(key uint64, seq int) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, key^uint64(seq)<<32)
	return v
}

// Run executes cfg against st and reports the measured distributions.
func Run(st Store, cfg Config) (Report, error) {
	events, info, err := Plan(cfg)
	if err != nil {
		return Report{}, err
	}
	if err := cfg.fill(); err != nil {
		return Report{}, err
	}
	rep := Report{
		Scenario:         cfg.Scenario.Name,
		Sessions:         cfg.Sessions,
		DistinctSessions: info.DistinctSessions,
		OfferedRate:      cfg.Rate,
		Epochs:           len(info.EpochRequests),
	}
	if cfg.Virtual {
		return runVirtual(st, cfg, events, info, rep)
	}
	return runOpenLoop(st, cfg, events, info, rep)
}

// runVirtual groups arrivals by epoch quantum, submits each group
// back-to-back, flushes, and awaits completions — a deterministic schedule
// for leakage and determinism tests.
func runVirtual(st Store, cfg Config, events []Event, info PlanInfo, rep Report) (Report, error) {
	var lat metrics.Latencies
	start := time.Now()
	epochSec := cfg.Epoch.Seconds()
	i := 0
	for e := 0; e < len(info.EpochRequests); e++ {
		edge := float64(e+1) * epochSec
		waits := make([]func() ([]byte, bool, error), 0, info.EpochRequests[e])
		for i < len(events) && (events[i].At.Seconds() < edge || e == len(info.EpochRequests)-1) {
			ev := events[i]
			i++
			submit := func(write bool) {
				var w func() ([]byte, bool, error)
				var err error
				if write {
					w, err = st.WriteAsync(ev.Key, value(ev.Key, i))
				} else {
					w, err = st.ReadAsync(ev.Key)
				}
				if err != nil {
					rep.Failed++
					return
				}
				rep.Submitted++
				waits = append(waits, w)
			}
			submit(ev.Write)
			if ev.Update {
				submit(true)
			}
		}
		st.Flush()
		t0 := time.Now()
		for _, w := range waits {
			if _, _, err := w(); err != nil {
				rep.Failed++
				continue
			}
			rep.Completed++
			lat.Add(time.Since(t0))
		}
	}
	rep.EpochRequests = info.EpochRequests
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.AchievedRate = float64(rep.Completed) / rep.WallSeconds
	}
	rep.Latency = toMillis(lat.Snapshot())
	return rep, nil
}

// runOpenLoop paces the schedule on the store's Clock, or the wall clock.
// Submission is non-blocking; one waiter goroutine per in-flight request
// collects the completion and records latency from the intended send time.
// The run lasts until its last completion (or the drain deadline), so its
// achieved rate counts the drain.
func runOpenLoop(st Store, cfg Config, events []Event, info PlanInfo, rep Report) (Report, error) {
	clk, ok := st.(Clock)
	if !ok {
		clk = wallClock{}
	}
	var (
		lat       metrics.Latencies
		mu        sync.Mutex // the counts, last and lat
		completed int
		failed    int
		slowDone  int
		collected int       // completions, whatever their outcome
		last      time.Time // the latest completion
	)
	sem := make(chan struct{}, cfg.MaxInFlight)
	start := clk.Now()

	collect := func(w func() ([]byte, bool, error), intended time.Time, slow bool) {
		defer func() { <-sem }()
		if slow {
			// A slow client leaves the reply unread; the server-side
			// epoch schedule must not care.
			clk.SleepUntil(clk.Now().Add(cfg.Scenario.SlowDelay))
		}
		_, _, err := w()
		// Stamped and counted under mu, so whoever holds mu next sees
		// every completion the clock has reached.
		mu.Lock()
		done := clk.Now()
		collected++
		if done.After(last) {
			last = done
		}
		if err != nil {
			failed++
		} else if slow {
			slowDone++
		} else {
			completed++
			lat.Add(done.Sub(intended))
		}
		mu.Unlock()
	}

	submit := func(ev Event, intended time.Time, write bool, seq int) {
		var w func() ([]byte, bool, error)
		var err error
		if write {
			w, err = st.WriteAsync(ev.Key, value(ev.Key, seq))
		} else {
			w, err = st.ReadAsync(ev.Key)
		}
		if err != nil {
			mu.Lock()
			failed++
			mu.Unlock()
			return
		}
		rep.Submitted++
		sem <- struct{}{}
		go collect(w, intended, ev.Slow)
	}

	for seq, ev := range events {
		intended := start.Add(ev.At)
		// Coarse pacing: sleep only when comfortably ahead; absolute
		// targets keep the error from accumulating.
		if intended.Sub(clk.Now()) > time.Millisecond {
			clk.SleepUntil(intended)
		}
		submit(ev, intended, ev.Write, seq)
		if ev.Update {
			submit(ev, intended, true, seq)
		}
	}
	end := clk.Now()

	// Drain with a deadline so a wedged deployment yields a report
	// instead of a hang.
	for deadline := end.Add(cfg.DrainTimeout); clk.Now().Before(deadline); {
		mu.Lock()
		drained := collected == rep.Submitted
		mu.Unlock()
		if drained {
			break
		}
		clk.SleepUntil(clk.Now().Add(time.Millisecond))
	}

	mu.Lock()
	rep.Completed = completed
	rep.Failed = failed
	rep.SlowCompleted = slowDone
	rep.TimedOut = collected < rep.Submitted
	if rep.TimedOut {
		end = clk.Now()
	} else if last.After(end) {
		end = last
	}
	rep.Latency = toMillis(lat.Snapshot())
	mu.Unlock()
	rep.WallSeconds = end.Sub(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.AchievedRate = float64(rep.Completed+rep.SlowCompleted) / rep.WallSeconds
	}
	return rep, nil
}
