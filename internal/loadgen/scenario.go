package loadgen

import "time"

// Suite returns the standard scenario matrix the traffic harness and the
// soak tests run: the paper's evaluation workloads (Figs. 6–8) plus the
// adversarial shapes (hot-key storm, flash-crowd bursts, churn with slow
// clients) that an oblivious deployment must absorb without its schedule
// leaking. The epoch quantum is only used to scale the slow-client delay.
func Suite(epoch time.Duration) []Scenario {
	slow := 5 * epoch
	if slow < 10*time.Millisecond {
		slow = 10 * time.Millisecond
	}
	return []Scenario{
		{
			Name:      "poisson-uniform",
			Arrival:   ArrivalPoisson,
			Keys:      KeysUniform,
			WriteFrac: 0.5,
		},
		{
			Name:      "poisson-zipf",
			Arrival:   ArrivalPoisson,
			Keys:      KeysZipf,
			ZipfS:     1.1,
			WriteFrac: 0.5,
		},
		{
			Name:      "hotkey-storm",
			Arrival:   ArrivalPoisson,
			Keys:      KeysHot,
			HotFrac:   0.9,
			WriteFrac: 0.1,
		},
		{
			Name:        "bursty-uniform",
			Arrival:     ArrivalBursty,
			Keys:        KeysUniform,
			WriteFrac:   0.5,
			BurstFactor: 8,
			BurstPeriod: 1,
		},
		{
			Name:        "diurnal-mixed",
			Arrival:     ArrivalDiurnal,
			Keys:        KeysZipf,
			ZipfS:       1.3,
			WriteFrac:   0.3,
			UpdateFrac:  0.2,
			BurstFactor: 4,
		},
		{
			Name:      "churn-slow",
			Arrival:   ArrivalPoisson,
			Keys:      KeysUniform,
			WriteFrac: 0.5,
			ChurnFrac: 0.05,
			SlowFrac:  0.02,
			SlowDelay: slow,
		},
	}
}
