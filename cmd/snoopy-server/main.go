// Command snoopy-server hosts one subORAM partition behind an attested,
// encrypted TCP endpoint (the paper's per-machine subORAM process). The
// partition is the process's only one, so its scan uses GOMAXPROCS workers.
//
// The simulated attestation platform is keyed by a shared hex secret so
// that separately started processes agree on one authority:
//
//	snoopy-server -listen :7001 -block 160 -platform 00112233...
//
// Then point snoopy-client (or snoopy.DialSubORAM) at it with the same
// platform secret.
//
// With -data <dir>, the partition is durable (internal/persist): a sealed
// segment-store image of the partition plus a sealed write-ahead log of the
// deliveries since (a delivery is an epoch's batches, applied whole) live in
// <dir>, every acknowledged delivery is on disk before its responses leave
// the enclave, and a restarted server — including after kill -9 — recovers
// the partition and resumes serving without re-initialization. With
// -disk-resident as well, the partition's values live in the image itself,
// which every delivery's scans rewrite and commit once, and no log is kept (persist.NewPartition builds the partition in
// its placement and rejects -disk-resident without -data or with -sealed).
// If the host tampered with or rolled back any file in <dir>, startup fails
// loudly with an integrity error instead of serving corrupt or stale state:
//
//	snoopy-server -listen :7001 -block 160 -data /var/lib/snoopy/part0 -platform ...
//
// With -standby-root, the process is a warm standby for a load-balancer
// root that journals its epochs (Config.JournalDir / snoopy-client
// -journal-dir): it probes the primary root's liveness address every
// -probe-interval, and after -fail-after consecutive misses it promotes
// itself — it attests to the partition servers, opens the shared journal
// directory (which replays any journaled-but-incomplete epochs under the
// dead root's (stream, epoch) delivery tags; the delivery window each
// partition server runs its partition behind makes the re-dispatch
// exactly-once), and serves epochs from then on. The scope is honest about
// what this binary can and cannot recover: replayed answers
// are parked in the promoted root's reply window for clients that retry
// under their original idempotency IDs, but client connections themselves
// are process-local in this reproduction — a client embedded in the dead
// primary must reconnect to the standby by its own means (e.g. rerun
// snoopy-client against the same -journal-dir). The journal directory
// must be shared storage reachable from both roots:
//
//	snoopy-server -standby-root -journal-dir /srv/snoopy/journal \
//	              -primary 127.0.0.1:9100 -servers 127.0.0.1:7001,127.0.0.1:7002 \
//	              -fail-after 3 -probe-interval 1s -platform ...
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"runtime"
	"strings"
	"time"

	"snoopy/internal/cluster"
	"snoopy/internal/core"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/obliv"
	"snoopy/internal/persist"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// Program is the enclave identity this binary attests to; clients must
// expect enclave.Measure(Program).
const Program = "snoopy-suboram-v1"

// standbyRoot runs the warm-standby root loop: probe the primary, and on
// a trip promote by opening the shared journal directory over attested
// partition connections. Runs until the process is killed.
func standbyRoot(primary, journalDir, servers string, failAfter int, probeInterval, epoch time.Duration,
	block, lbs, lambda int, platform *enclave.Platform, reg *telemetry.Registry) {
	if journalDir == "" {
		log.Fatal("-standby-root requires -journal-dir (shared with the primary root)")
	}
	if primary == "" {
		log.Fatal("-standby-root requires -primary (a TCP address the primary keeps open, e.g. its -telemetry-addr)")
	}
	if servers == "" {
		log.Fatal("-standby-root requires -servers (the partition endpoints to adopt on promotion)")
	}
	if epoch <= 0 {
		log.Fatal("-standby-root requires -epoch > 0: the promoted root's ticker is its one epoch source")
	}
	m := enclave.Measure(Program)
	addrs := strings.Split(servers, ",")

	sup := cluster.NewSupervisor(cluster.Policy{FailAfter: failAfter, ProbeInterval: probeInterval})
	if reg != nil {
		sup.Instrument(reg)
	}
	// One promotion runs at a time; each root gets its own epoch ticker,
	// stopped when that root is superseded.
	var ticker *time.Ticker
	promote := func(old *core.System) (*core.System, error) {
		if old != nil {
			old.Close()
			ticker.Stop()
		}
		subs := make([]core.SubORAMClient, len(addrs))
		for i, addr := range addrs {
			sub, err := transport.Dial(strings.TrimSpace(addr), platform, m)
			if err != nil {
				return nil, fmt.Errorf("partition %s: %w", addr, err)
			}
			subs[i] = sub
		}
		t := time.NewTicker(epoch)
		sys, err := core.NewWithSubORAMs(core.Config{
			BlockSize:        block,
			NumLoadBalancers: lbs,
			Lambda:           lambda,
			Ticks:            t.C,
			JournalDir:       journalDir,
			Telemetry:        reg,
		}, subs)
		if err != nil {
			t.Stop()
			return nil, err
		}
		ticker = t
		log.Printf("promoted: serving as root over journal %s (incomplete epochs replayed)",
			journalDir)
		return sys, nil
	}
	sup.SuperviseRoot(nil, promote)
	// Until promoted, liveness is the primary's TCP endpoint; after, it is
	// our own (now-primary) root.
	sup.WatchRoot(func(sys *core.System, timeout time.Duration) error {
		if sys != nil {
			if sys.Crashed() {
				return errors.New("local root crashed")
			}
			return nil
		}
		c, err := net.DialTimeout("tcp", primary, timeout)
		if err != nil {
			return err
		}
		return c.Close()
	})
	fmt.Printf("standby root: probing %s every %v (fail-after=%d journal=%s partitions=%d)\n",
		primary, probeInterval, failAfter, journalDir, len(addrs))
	for range time.Tick(10 * probeInterval) {
		if st := sup.Stats(); st.RootTrips > 0 {
			log.Printf("root plane: %s", st.String())
		}
	}
}

func main() {
	listen := flag.String("listen", ":7001", "address to listen on")
	block := flag.Int("block", 160, "object size in bytes")
	sealed := flag.Bool("sealed", false, "store partition in sealed enclave-external memory")
	dataDir := flag.String("data", "", "directory for sealed durable state (empty = in-memory only)")
	diskResident := flag.Bool("disk-resident", false, "keep partition contents on disk in sealed segments (requires -data, excludes -sealed)")
	platformHex := flag.String("platform", "", "shared platform root key (64 hex chars); empty generates one and prints it")
	healthLog := flag.Duration("health-log", 0, "log serving counters (batches, rows, epoch) this often (0 = off)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /trace/epochs, and /debug/pprof on this address (empty = off)")
	standbyRootMode := flag.Bool("standby-root", false, "run as a warm standby for a journaling LB root instead of a partition")
	journalDir := flag.String("journal-dir", "", "shared epoch-journal directory for -standby-root (same as the primary root's)")
	primary := flag.String("primary", "", "primary root liveness address probed by -standby-root (any TCP endpoint it keeps open)")
	probeInterval := flag.Duration("probe-interval", time.Second, "primary liveness probe interval for -standby-root")
	failAfter := flag.Int("fail-after", 3, "consecutive missed probes before -standby-root promotes itself")
	servers := flag.String("servers", "", "comma-separated partition addresses adopted by -standby-root on promotion")
	lbs := flag.Int("lbs", 2, "load-balancer count for the promoted root (-standby-root; must match the primary's)")
	epoch := flag.Duration("epoch", 50*time.Millisecond, "epoch duration for the promoted root (-standby-root)")
	lambda := flag.Int("lambda", 128, "batch-sizing security parameter in bits for the promoted root (-standby-root)")
	flag.Parse()

	var key crypt.Key
	if *platformHex == "" {
		key = crypt.MustNewKey()
		fmt.Printf("platform key: %s\n", hex.EncodeToString(key[:]))
	} else {
		raw, err := hex.DecodeString(*platformHex)
		if err != nil || len(raw) != crypt.KeySize {
			log.Fatalf("-platform must be %d hex chars", 2*crypt.KeySize)
		}
		copy(key[:], raw)
	}
	platform := enclave.NewPlatformFromKey(key)
	fmt.Printf("scan kernel: %s\n", obliv.Kernel())

	// One registry instruments the partition, its durable layer, and the
	// transport; -health-log prints from it. Every instrument it exposes is
	// keyed on public events only (batches, epochs, connections), so
	// serving it leaks nothing beyond what the network adversary already
	// sees.
	var reg *telemetry.Registry
	if *telemetryAddr != "" || *healthLog > 0 {
		reg = telemetry.NewRegistry()
	}
	if *telemetryAddr != "" {
		addr, stop, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			log.Fatalf("telemetry listener on %s: %v", *telemetryAddr, err)
		}
		defer stop()
		fmt.Printf("telemetry on http://%s (/metrics, /trace/epochs, /debug/pprof)\n", addr)
	}

	if *standbyRootMode {
		standbyRoot(*primary, *journalDir, *servers, *failAfter, *probeInterval, *epoch,
			*block, *lbs, *lambda, platform, reg)
		return
	}

	part, recovered, _, err := persist.NewPartition(*block, runtime.GOMAXPROCS(0), *sealed, *dataDir, *diskResident, reg)
	if err != nil {
		log.Fatalf("partition unusable: %v", err)
	}
	epochOf := func() uint64 { return 0 }
	if dur, ok := part.(*persist.Durable); ok {
		if recovered {
			fmt.Printf("recovered partition from %s: %d objects at epoch %d (replayed %d WAL epochs)\n",
				*dataDir, part.NumObjects(), dur.Epoch(), dur.Replayed())
		} else {
			fmt.Printf("durable state in %s (fresh partition)\n", *dataDir)
		}
		epochOf = dur.Epoch
	}
	if *healthLog > 0 {
		batches, rows := reg.Counter("transport_batches_served_total"), reg.Counter("suboram_rows_total")
		go func() {
			for range time.Tick(*healthLog) {
				log.Printf("health: batches=%d rows=%d epoch=%d objects=%d",
					batches.Value(), rows.Value(), epochOf(), part.NumObjects())
			}
		}()
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subORAM serving on %s (block=%dB sealed=%v measurement=%q)\n",
		l.Addr(), *block, *sealed, Program)
	if err := transport.ServeSubORAM(l, part, platform, enclave.Measure(Program), reg); err != nil {
		log.Fatal(err)
	}
}
