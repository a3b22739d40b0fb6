package figures

import (
	"io"
	"time"

	"snoopy/internal/planner"
	"snoopy/internal/simnet"
)

// fig9aSim is Fig. 9a's 500 ms series twice over, from one cost model: at
// each machine count, the best split the discrete-event simulator sustains
// beside the best split of the closed form (Eq. 1).
func fig9aSim(objects, lambda int, m planner.CostModel) [][2]split {
	bound := 500 * time.Millisecond
	rows := make([][2]split, len(machineCounts))
	for i, machines := range machineCounts {
		for b := 1; b < machines; b++ {
			x, err := simnet.MaxStableThroughput(simnet.Config{
				LBs: b, Subs: machines - b, Objects: objects, Lambda: lambda,
				Epoch: 2 * bound / 5, Model: m, Epochs: 40, Seed: int64(machines*100 + b),
			}, bound)
			if err != nil {
				panic(err)
			}
			if x > rows[i][0].x {
				rows[i][0] = split{b, machines - b, x}
			}
		}
		rows[i][1] = bestSplit(planner.Requirements{Objects: objects, MaxLatency: bound, Lambda: lambda}, m, machines)
	}
	return rows
}

// Fig9aSim cross-checks Fig. 9a with the discrete-event cluster simulator
// (internal/simnet): the same cost model, but throughput found by actually
// scheduling pipelined epochs over simulated machines and links instead of
// the closed-form Eq. (1). Agreement between the two columns validates the
// methodology used for the multi-machine figures.
func Fig9aSim(w io.Writer, sc Scale) {
	fprintf(w, "# Figure 9a (simulated cluster): throughput vs machines — %d objects x %dB, latency <= 500ms\n",
		sc.Objects, sc.Block)
	fprintf(w, "%9s  %20s %20s\n", "machines", "simulated (L+S)", "closed-form (L+S)")
	for i, row := range fig9aSim(sc.Objects, sc.Lambda, calibrated(sc.Block, sc.Lambda)) {
		sim, cf := row[0], row[1]
		fprintf(w, "%9d  %12.0f (%d+%2d) %12.0f (%d+%2d)\n",
			machineCounts[i], sim.x, sim.lbs, sim.subs, cf.x, cf.lbs, cf.subs)
	}
	fprintf(w, "# the simulator schedules real pipelined epochs; columns agreeing within ~2x\n")
	fprintf(w, "# validates the closed-form methodology used in Fig 9a/9b/10/11\n")
}
