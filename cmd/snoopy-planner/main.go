// Command snoopy-planner runs the paper's §6 deployment planner: given a
// data size and performance targets, it calibrates component costs on this
// machine and prints the cheapest configuration of machines joined by the
// paper's testbed link (1 Gbps, 0.5 ms round trip).
//
//	snoopy-planner -objects 2000000 -block 160 -throughput 50000 -latency 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"snoopy/internal/planner"
)

func main() {
	objects := flag.Int("objects", 2_000_000, "number of stored objects")
	block := flag.Int("block", 160, "object size in bytes")
	throughput := flag.Float64("throughput", 50_000, "minimum throughput (requests/second)")
	latency := flag.Duration("latency", time.Second, "maximum average latency")
	lbPrice := flag.Float64("lb-price", 420, "load balancer node $/month")
	subPrice := flag.Float64("sub-price", 420, "subORAM node $/month")
	maxLB := flag.Int("max-lb", 10, "search bound: load balancers")
	maxSub := flag.Int("max-sub", 40, "search bound: subORAMs")
	flag.Parse()

	fmt.Println("calibrating component costs on this machine...")
	model, err := planner.Calibrate(*block, 128, planner.Testbed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := planner.Optimize(planner.Requirements{
		Objects:          *objects,
		MinThroughput:    *throughput,
		MaxLatency:       *latency,
		MaxLoadBalancers: *maxLB,
		MaxSubORAMs:      *maxSub,
	}, model, planner.Prices{LoadBalancer: *lbPrice, SubORAM: *subPrice})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recommended configuration for %d x %dB objects, >=%.0f reqs/s, <=%v avg latency:\n",
		*objects, *block, *throughput, *latency)
	fmt.Print(plan.Format())
}
