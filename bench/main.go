// Command bench is the repository's one benchmark: four workloads, each
// run in a process of its own, every reply checked against a plaintext
// reference model, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. See README.md in this directory.
//
//	go run -C bench .                      all four workloads, end-to-end metrics
//	go run -C bench . -trace 1             all four, per-layer metrics + span files
//	go run -C bench . -repeat 5            five sets, spread of each metric against its bound
//	go run -C bench . -workload scan_heavy -seed 7 -seconds 25 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// The metrics, in print order. BENCHMARK.json declares the same names and
// units (bench_test.go holds the two together).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "ops/s"},
	{"epoch_ms_p50", "ms"},
	{"latency_ms_p50", "ms"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"core.epoch_wall_ms", "ms"},
	{"core.submit_ns_per_op", "ns/op"},
	{"core.flush_ms", "ms"},
	{"core.await_ms", "ms"},
	{"core.overhead_ms", "ms"},
	{"core.unattributed_frac", "ratio"},
	{"core.allocs_per_op", "1/op"},
	{"core.bytes_per_op", "B/op"},
	{"core.gc_pause_ms_total", "ms"},
	{"core.alpha", "count"},
	{"core.dropped", "count"},
	{"core.max_rate_ok_rps", "ops/s"},
	{"core.epoch_ms_p95", "ms"},
	{"core.latency_ms_p99", "ms"},
	{"core.latency_ms_p999", "ms"},
	{"core.latency_ms_max", "ms"},
	{"loadbalancer.make_batches_ms", "ms"},
	{"loadbalancer.match_responses_ms", "ms"},
	{"loadbalancer.rows_sorted", "count"},
	{"loadbalancer.fill_ratio", "ratio"},
	{"obliv.sort_ns_per_row", "ns/row"},
	{"obliv.compact_ns_per_row", "ns/row"},
	{"ohash.build_ms", "ms"},
	{"suboram.batch_access_ms", "ms"},
	{"suboram.scan_ms", "ms"},
	{"suboram.scan_mb_per_s", "MiB/s"},
	{"suboram.straggler_ratio", "ratio"},
	{"transport.rtt_ms", "ms"},
	{"transport.overhead_ms", "ms"},
	{"transport.bytes_per_epoch", "B"},
	{"transport.retries", "count"},
	{"wirecode.encode_ms", "ms"},
	{"wirecode.decode_ms", "ms"},
	{"wirecode.frame_bytes", "B"},
	{"crypt.seal_mb_per_s", "MiB/s"},
	{"crypt.open_mb_per_s", "MiB/s"},
	{"persist.overhead_ms", "ms"},
	{"persist.journal_bytes_per_epoch", "B"},
	{"persist.wal_bytes_per_epoch", "B"},
	{"persist.disk_bytes_per_user_byte", "ratio"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.samples", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	genLateMs float64 // open loop, untraced: the dispatcher's p99 lateness
}

func newResult(defs []metricDef, attempted, failed int, values map[string]float64) *result {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

func (r *result) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-36s %16.6f ratio (%d failed of %d attempted)\n", "failed_frac",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with one JSON line (default: all four, a process each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same operations")
	flag.IntVar(&o.seconds, "seconds", 25, "measured length of one run")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, span file in bench/out/); 0: end-to-end metrics, tracing off")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many sets (at least 2) with tracing off and check each metric's spread against its bound")
	flag.Parse()
	// A spread needs two sets.
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.repeat < 0 || o.repeat == 1 {
		flag.Usage()
		os.Exit(2)
	}
	// SIGPIPE too: a reader that closes the output early (| head) must not
	// leave children and the work directory behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.workload != "" && o.repeat == 0 {
		// A single-workload run stops its servers on a signal, too. (The
		// orchestrating modes pass the signal on and wait, see child.)
		go func() {
			<-ctx.Done()
			e.cleanup()
			os.Exit(130)
		}()
	}
	code := run(ctx, e, o)
	e.cleanup()
	os.Exit(code)
}

func run(ctx context.Context, e *env, o options) int {
	var err error
	switch {
	case o.repeat > 0:
		err = repeat(ctx, e, o)
	case o.workload == "":
		err = all(ctx, e, o)
	default:
		sp, ok := specByName(o.workload, false)
		if !ok {
			err = fmt.Errorf("unknown workload %q", o.workload)
			break
		}
		err = one(e, sp, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// one runs a single workload in this process and prints its result line.
func one(e *env, sp spec, o options) error {
	// On one CPU the run shares it with an idle-class spinner (startSpinner
	// says why). With more, nothing says which CPU the workload will wait on,
	// and a spinner on another one could only take a shared core's cycles.
	if runtime.NumCPU() == 1 {
		if err := e.startSpinner(); err != nil {
			return fmt.Errorf("idle spinner: %w", err)
		}
	}
	meta := metadata(e, sp, o)
	for _, k := range metaOrder {
		fmt.Printf("# %-12s %s\n", k, meta[k])
	}
	dur := time.Duration(o.seconds) * time.Second
	var res *result
	var err error
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		res, err = traceRun(e, sp, o.seed, dur, meta)
	} else {
		res, err = measure(e, sp, o.seed, dur)
	}
	if err != nil {
		return err
	}
	if res.genLateMs > ms(sp.epoch)/2 {
		return fmt.Errorf("%s: invalid run: the generator ran late (p99 %.2f ms, more than half an epoch); the numbers would measure it, not the store",
			sp.name, res.genLateMs)
	}
	res.print(os.Stdout, defs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or were answered wrongly", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a process of its own, so that peak RSS, heap
// and pools start fresh, and returns the result it printed last.
func child(ctx context.Context, out io.Writer, workload string, seed int64, o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
	// SIGTERM, not the default SIGKILL: the child has children to stop.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.Stderr = os.Stderr
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(out, &buf)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// all runs the four workloads, one process each.
func all(ctx context.Context, e *env, o options) error {
	var failed []string
	for _, sp := range specs(false) {
		fmt.Printf("\n== %s ==\n", sp.name)
		if _, err := child(ctx, os.Stdout, sp.name, o.seed, o); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, sp.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// benchmarkJSON is the part of BENCHMARK.json that -repeat needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeat runs o.repeat sets of untraced runs, set i with seed o.seed+i, and
// holds each end-to-end metric's spread, the distance between its quartiles
// as a share of its median, against the bound BENCHMARK.json gives it.
func repeat(ctx context.Context, e *env, o options) error {
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.trace = 0
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, sp := range specs(false) {
			names = append(names, sp.name)
		}
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for i := 0; i < o.repeat; i++ {
		for _, w := range names {
			res, err := child(ctx, io.Discard, w, o.seed+int64(i), o)
			if err != nil {
				return err
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Printf("set %d %-15s seed %d ok\n", i+1, w, o.seed+int64(i))
		}
	}
	fmt.Printf("\n%-15s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	wide := 0
	for _, w := range names {
		for _, m := range bj.EndToEnd {
			v := values[w][m.Name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			verdict := ""
			switch {
			case m.Name == "setup_s":
				// Five set-ups a run are all set-up gets. The driver of the ledger
				// holds set-up's median to its bound, not its spread; so does this.
				verdict = "  (spread shown, not held)"
			case spread > m.Bound:
				verdict = "  WIDER THAN BOUND"
				wide++
			}
			fmt.Printf("%-15s %-16s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", w, m.Name, q1, q2, q3, spread, m.Bound, verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metrics spread wider than their bounds over %d sets", wide, o.repeat)
	}
	return nil
}

var metaOrder = []string{"workload", "why", "shape", "load", "seed", "seconds", "trace", "commit", "go", "nproc",
	"gomaxprocs", "idle_spin", "gogc", "cpu", "kernel", "workdir_fs", "caveats"}

// metadata is the host and run description every output carries.
func metadata(e *env, sp spec, o options) map[string]string {
	m := map[string]string{
		"workload": sp.name, "why": sp.why, "shape": sp.shape(), "load": sp.loop(),
		"seed": fmt.Sprint(o.seed), "seconds": fmt.Sprint(o.seconds), "trace": fmt.Sprint(o.trace),
		"go": runtime.Version(), "nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)) + " (default: the usable CPUs)",
		"idle_spin": "off (more than one usable CPU)",
		"gogc":      "default", "commit": "unknown", "cpu": "unknown", "kernel": "unknown", "workdir_fs": fsName(e.work),
		"caveats": "set-up is timed 5 times per run (median reported); ",
	}
	if sp.remote {
		m["caveats"] += "loopback TCP and the sandbox's fsync: the sandbox's numbers, not a network's or a device's"
	} else {
		m["caveats"] += "in-process deployment, no network or disk"
	}
	if runtime.NumCPU() == 1 {
		m["idle_spin"] = "on: an idle-class spinner keeps the one CPU from halting while the workload waits"
	}
	if v := os.Getenv("GOGC"); v != "" {
		m["gogc"] = v
	}
	if os.Getenv("GOMAXPROCS") != "" {
		m["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0)) + " (GOMAXPROCS in the environment; snoopy-server children inherit it)"
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		m["commit"] = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		// Usable: what the process's CPU affinity leaves it (taskset).
		m["nproc"] = fmt.Sprintf("%d usable of %d online", runtime.NumCPU(), strings.Count(string(b), "processor\t:"))
		if _, rest, ok := strings.Cut(string(b), "model name"); ok {
			line, _, _ := strings.Cut(rest, "\n")
			m["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), ":"))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m["kernel"] = strings.TrimSpace(string(b))
	}
	return m
}

// fsName names the filesystem journals and partition data are written to.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type %#x", uint32(st.Type))
}
