// Command snoopy-bench regenerates the tables and figures of the Snoopy
// paper's evaluation (SOSP'21 §8). Each figure prints the same rows/series
// the paper plots; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	snoopy-bench -fig 9a            # one figure
//	snoopy-bench -fig all           # everything (minutes at default scale)
//	snoopy-bench -fig 9a -full      # paper-scale data sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"snoopy/internal/figures"
	"snoopy/internal/obliv"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,table8,9a,9b,10,11a,11b,12,13a,13b,14,headline,all")
	full := flag.Bool("full", false, "use the paper's full data sizes (-fig all -full took 51 s on a 2-vCPU Xeon)")
	traffic := flag.String("traffic", "", "instead of a figure, run the open-loop traffic harness (scenario suite at the reference load, then a knee search from -rate vs the Eq. 1 prediction) and write the report to this JSON file")
	trafficServers := flag.String("servers", "", "with -traffic: comma-separated snoopy-server addresses to drive a real TCP cluster (empty = in-process deployment)")
	trafficPlatform := flag.String("platform", "", "with -traffic -servers: shared platform root key (64 hex chars, copy from snoopy-server)")
	trafficScenarios := flag.String("scenarios", "all", "with -traffic: comma-separated suite scenario names, or all")
	trafficSessions := flag.Int("sessions", 100_000, "with -traffic: simulated client-session population")
	trafficRate := flag.Float64("rate", 2000, "with -traffic: reference offered load in requests/second for the scenario suite, and the knee search's first rung")
	trafficDuration := flag.Duration("duration", 3*time.Second, "with -traffic: schedule length per scenario / knee probe")
	trafficEpoch := flag.Duration("epoch", 50*time.Millisecond, "with -traffic: epoch duration")
	trafficObjects := flag.Int("objects", 4096, "with -traffic: object count")
	trafficBlock := flag.Int("block", 160, "with -traffic: object size in bytes (must match -servers' -block)")
	trafficLBs := flag.Int("lbs", 2, "with -traffic: load balancers")
	trafficSubs := flag.Int("suborams", 4, "with -traffic: subORAMs (in-process mode; TCP mode uses one per -servers address)")
	trafficKnee := flag.Bool("knee", true, "with -traffic: calibrate, predict capacity with Eq. 1, and search rates for the sustained-throughput knee")
	flag.Parse()
	fmt.Println(host())

	if *traffic != "" {
		err := runTraffic(trafficOptions{
			out:       *traffic,
			servers:   *trafficServers,
			platform:  *trafficPlatform,
			scenarios: *trafficScenarios,
			sessions:  *trafficSessions,
			rate:      *trafficRate,
			duration:  *trafficDuration,
			epoch:     *trafficEpoch,
			objects:   *trafficObjects,
			block:     *trafficBlock,
			lbs:       *trafficLBs,
			subs:      *trafficSubs,
			knee:      *trafficKnee,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "traffic run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("traffic report written to %s\n", *traffic)
		return
	}

	sc := figures.DefaultScale()
	if *full {
		sc = figures.FullScale()
	}
	w := os.Stdout

	runs := map[string]func(){
		"3":        func() { figures.Fig3(w, sc) },
		"4":        func() { figures.Fig4(w, sc) },
		"table8":   func() { figures.Table8(w) },
		"9a":       func() { figures.Fig9a(w, sc) },
		"9b":       func() { figures.Fig9b(w, sc) },
		"10":       func() { figures.Fig10(w, sc) },
		"11a":      func() { figures.Fig11a(w, sc) },
		"11b":      func() { figures.Fig11b(w, sc) },
		"12":       func() { figures.Fig12(w, sc) },
		"13a":      func() { figures.Fig13a(w, sc) },
		"13b":      func() { figures.Fig13b(w, sc) },
		"14":       func() { figures.Fig14(w, sc) },
		"headline": func() { figures.Headline(w, sc) },
	}
	order := []string{"3", "4", "table8", "9a", "9b", "10", "11a", "11b", "12", "13a", "13b", "14", "headline"}

	want := strings.ToLower(*fig)
	if want == "all" {
		for _, k := range order {
			runs[k]()
			fmt.Fprintln(w)
		}
		return
	}
	run, ok := runs[want]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q; choose from %s or all\n", *fig, strings.Join(order, ","))
		os.Exit(2)
	}
	run()
}

// host names what the run measures on: the CPU model, the CPUs this process
// may use, GOMAXPROCS and the scan kernel's body.
func host() string {
	model := runtime.GOARCH
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("# host: %s, %d usable CPU(s), GOMAXPROCS %d, scan kernel %s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), obliv.Kernel())
}
