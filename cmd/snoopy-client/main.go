// Command snoopy-client drives a Snoopy deployment whose subORAMs run as
// snoopy-server processes: it attests and connects to each server, loads a
// synthetic object set, runs a mixed read/write workload, and reports
// throughput and latency percentiles. The store runs its own -epoch ticker
// with two epochs in flight, and with -standbys it replaces a partition that
// fails 3 consecutive epochs with the next standby.
//
//	snoopy-server -listen :7001 -platform <hex> &
//	snoopy-server -listen :7002 -platform <hex> &
//	snoopy-client -servers 127.0.0.1:7001,127.0.0.1:7002 -platform <hex> \
//	              -objects 100000 -ops 2000 -clients 8
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snoopy"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/metrics"
	"snoopy/internal/workload"
)

func main() {
	servers := flag.String("servers", "127.0.0.1:7001", "comma-separated subORAM addresses")
	platformHex := flag.String("platform", "", "shared platform root key (64 hex chars)")
	objects := flag.Int("objects", 100_000, "objects to load")
	block := flag.Int("block", 160, "object size in bytes")
	ops := flag.Int("ops", 2000, "operations to run")
	clients := flag.Int("clients", 8, "concurrent clients")
	lbs := flag.Int("lbs", 2, "load balancers")
	epoch := flag.Duration("epoch", 50*time.Millisecond, "epoch duration")
	writeFrac := flag.Float64("writes", 0.5, "write fraction")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-attempt batch RPC deadline (0 = derive from epoch)")
	dialTimeout := flag.Duration("dial-timeout", 0, "connect + attested handshake deadline (0 = default 5s)")
	retries := flag.Int("retries", 0, "reconnect attempts after a failed RPC (0 = default 4, negative = none)")
	standbys := flag.String("standbys", "", "comma-separated standby subORAM addresses, promoted in order when a partition fails 3 consecutive epochs")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /trace/epochs, and /debug/pprof on this address (empty = off)")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the process (and its telemetry endpoint) alive this long after the workload finishes")
	journalDir := flag.String("journal-dir", "", "epoch-journal directory for a fault-tolerant root (shared with snoopy-server -standby-root); enables idempotent ops")
	opRetries := flag.Int("op-retries", 3, "retries per op under the same idempotency ID after a root/partition failure (with -journal-dir)")
	retryBackoff := flag.Duration("retry-backoff", 0, "delay between idempotent op retries (0 = one epoch)")
	flag.Parse()

	var key crypt.Key
	raw, err := hex.DecodeString(*platformHex)
	if err != nil || len(raw) != crypt.KeySize {
		log.Fatalf("-platform must be %d hex chars (copy it from snoopy-server)", 2*crypt.KeySize)
	}
	copy(key[:], raw)
	platform := enclave.NewPlatformFromKey(key)
	m := snoopy.Measure("snoopy-suboram-v1")

	// One registry observes the whole client-side deployment: epoch stage
	// spans and core counters, load-balancer timings, and per-connection
	// transport RPC/retry activity. All of it is keyed on public events.
	var reg *snoopy.Telemetry
	if *telemetryAddr != "" {
		reg = snoopy.NewTelemetry()
		addr, stop, err := snoopy.ServeTelemetry(*telemetryAddr, reg)
		if err != nil {
			log.Fatalf("telemetry listener on %s: %v", *telemetryAddr, err)
		}
		defer stop()
		fmt.Printf("telemetry on http://%s (/metrics, /trace/epochs, /debug/pprof)\n", addr)
	}

	// Every timeout below derives from public deployment configuration
	// (flags and the epoch duration), never from request contents.
	dcfg := snoopy.DialConfig{
		RPCTimeout:  *rpcTimeout,
		DialTimeout: *dialTimeout,
		Retries:     *retries,
		Epoch:       *epoch,
		Telemetry:   reg,
	}
	var subs []snoopy.SubORAM
	for _, addr := range strings.Split(*servers, ",") {
		sub, err := snoopy.DialSubORAMConfig(strings.TrimSpace(addr), platform, m, dcfg)
		if err != nil {
			log.Fatalf("dial %s: %v", addr, err)
		}
		subs = append(subs, sub)
		fmt.Printf("attested and connected to %s\n", addr)
	}

	cfg := snoopy.Config{
		BlockSize:     *block,
		LoadBalancers: *lbs,
		Epoch:         *epoch,
		JournalDir:    *journalDir,
		Telemetry:     reg,
	}
	if *retryBackoff <= 0 {
		*retryBackoff = *epoch
	}

	// With -standbys, the store promotes the next unused standby when a
	// partition fails 3 consecutive epochs; the threshold is public, so
	// repair timing reveals nothing about request contents.
	if *standbys != "" {
		addrs := strings.Split(*standbys, ",")
		pool := make(chan string, len(addrs))
		for _, addr := range addrs {
			pool <- strings.TrimSpace(addr)
		}
		cfg.Failover = func(part int, old snoopy.SubORAM) (snoopy.SubORAM, error) {
			select {
			case addr := <-pool:
				if c, ok := old.(interface{ Close() error }); ok {
					c.Close()
				}
				sub, err := snoopy.DialSubORAMConfig(addr, platform, m, dcfg)
				if err != nil {
					return nil, fmt.Errorf("standby %s: %w", addr, err)
				}
				log.Printf("partition %d: promoted standby %s", part, addr)
				return sub, nil
			default:
				return nil, fmt.Errorf("partition %d: no standbys left", part)
			}
		}
	}

	st, err := snoopy.OpenWithSubORAMs(cfg, subs)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	fmt.Printf("loading %d objects...\n", *objects)
	ids := make([]uint64, *objects)
	data := make([]byte, *objects**block)
	for i := range ids {
		ids[i] = uint64(i)
		copy(data[i**block:], fmt.Sprintf("obj-%d", i))
	}
	if err := st.LoadSlices(ids, data); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d ops across %d clients (write fraction %.0f%%)...\n",
		*ops, *clients, 100**writeFrac)
	gen := workload.Mix(workload.Uniform(*objects), *writeFrac)
	var lat metrics.Latencies
	var failed, retried metrics.Counter
	th := metrics.NewThroughput()
	var wg sync.WaitGroup
	perClient := (*ops + *clients - 1) / *clients
	// With -journal-dir, every op carries a unique idempotency ID and is
	// retried under that same ID after a failure: a retry of a request the
	// root already answered (including one replayed from the journal by a
	// promoted standby) returns the original parked answer instead of
	// re-executing.
	idem := *journalDir != ""
	var nextID atomic.Uint64
	for c := 0; c < *clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				op := gen(rng)
				t0 := time.Now()
				req := snoopy.Op{Write: op.Write, Key: op.Key, Value: []byte(fmt.Sprintf("w-%d-%d", c, i))}
				if idem {
					req.ID = nextID.Add(1)
				}
				var err error
				for attempt := 0; ; attempt++ {
					if err = st.Do([]snoopy.Op{req})[0].Err; err == nil || !idem || attempt >= *opRetries {
						break
					}
					retried.Inc()
					time.Sleep(*retryBackoff)
				}
				if err != nil {
					failed.Inc()
					if *standbys == "" && !idem {
						log.Printf("op failed: %v", err)
						return
					}
					// An op routed to a dead partition fails within its
					// deadline; the store is promoting a standby, so keep
					// driving load through the outage.
					continue
				}
				lat.Add(time.Since(t0))
				th.Done(1)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("throughput: %.0f reqs/s\n", th.PerSecond())
	fmt.Printf("latency:    %s\n", lat.String())
	stats := st.Stats()
	fmt.Printf("last epoch: batch=%d dropped=%d make=%v suboram=%v match=%v\n",
		stats.BatchSize, stats.Dropped, stats.MakeBatch.Round(time.Microsecond),
		stats.SubORAM.Round(time.Microsecond), stats.Match.Round(time.Microsecond))
	if n := failed.Load(); n > 0 {
		fmt.Printf("failed ops: %d\n", n)
	}
	if n := retried.Load(); n > 0 {
		fmt.Printf("idempotent retries: %d\n", n)
	}
	if *standbys != "" {
		h := st.Health()
		fmt.Printf("failover:   healthy=%v failovers=%v failed_epochs=%v\n", h.Healthy(), h.Failovers, h.TotalFailures)
	}
	if reg != nil && *telemetryHold > 0 {
		fmt.Printf("holding telemetry endpoint for %v...\n", *telemetryHold)
		time.Sleep(*telemetryHold)
	}
}
