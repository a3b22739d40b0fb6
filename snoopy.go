// Package snoopy is an oblivious, horizontally scalable object store — a
// from-scratch Go reproduction of "Snoopy: Surpassing the Scalability
// Bottleneck of Oblivious Storage" (SOSP 2021).
//
// A Store hides *which* objects clients access from everything outside the
// (modeled) hardware enclaves: requests are collected into epochs,
// deduplicated and padded into equal-sized batches per data partition by
// oblivious load balancers, and each partition (subORAM) answers its batch
// with a single oblivious linear scan. Throughput scales by adding load
// balancers and subORAMs — there is no central point of coordination.
//
// Quick start:
//
//	st, _ := snoopy.Open(snoopy.Config{SubORAMs: 4, Epoch: 5 * time.Millisecond})
//	defer st.Close()
//	st.Load(map[uint64][]byte{1: []byte("hello"), 2: []byte("world")})
//	v, ok, _ := st.Read(1)            // oblivious read
//	prev, _, _ := st.Write(2, []byte("updated"))
//
// See examples/ for complete programs, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the reproduction of the paper's evaluation.
package snoopy

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"snoopy/internal/core"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/persist"
	"snoopy/internal/planner"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
	"snoopy/internal/transport"
)

// MaxKey is the largest valid object key; larger values are reserved for
// the system's internal dummy request space.
const MaxKey = uint64(1)<<63 - 1

// Config configures a deployment. The zero value gives a single-partition,
// single-load-balancer store with 160-byte objects and manual epochs.
type Config struct {
	// BlockSize is the fixed object value size in bytes (default 160, the
	// paper's object size). Shorter values are zero-padded.
	BlockSize int
	// LoadBalancers (L) and SubORAMs (S) size the deployment.
	LoadBalancers int
	SubORAMs      int
	// Lambda is the security parameter in bits for batch sizing (default
	// 128).
	Lambda int
	// Epoch is the batching interval. Above zero, a ticker of that period
	// is the store's one epoch source: every tick runs one epoch, idle or
	// not, with up to two epochs in flight (paper §6 pipelines
	// load-balancer and subORAM processing), and Flush starts nothing, so
	// when epochs start is a function of public configuration only. Zero
	// runs an epoch only when Flush is called, one at a time: the schedule
	// is then the caller's, and visible on the wire.
	Epoch time.Duration
	// Sealed keeps partitions in enclave-external authenticated-encrypted
	// memory (the paper's §7 deployment mode): the segment store over host
	// memory.
	Sealed bool
	// DataDir, when non-empty, makes the deployment durable: every
	// partition keeps a sealed segment-store image and (unless
	// DiskResident) a sealed write-ahead log of the batches since it under
	// this directory (internal/persist), every acknowledged write is on
	// disk before its epoch completes, and Open recovers the store
	// automatically when the directory already holds state — after a crash
	// (kill -9 included) reopen with the same DataDir and skip Load; see
	// Recovered. The host sees only fixed-shape authenticated ciphertext;
	// tampering or rollback of any state file makes Open fail with an
	// integrity error. Only local partitions persist here — remote
	// subORAMs (OpenWithSubORAMs) persist on their own hosts via
	// `snoopy-server -data`.
	DataDir string
	// DiskResident keeps partition contents on disk, in the durable image's
	// sealed fixed-shape segments (internal/segstore), instead of resident
	// memory, so a partition can be far larger than RAM: each batch streams
	// every segment through a small pooled buffer and commits the image.
	// Requires DataDir and is mutually exclusive with Sealed (the same
	// segment store, over host memory). The I/O schedule is a function of
	// public parameters only.
	DiskResident bool
	// JournalDir, when non-empty, makes the load-balancer root itself
	// fault tolerant: before any epoch's batches are dispatched to
	// partitions, the root seals the epoch's requests and reply routing
	// tables into a fixed-shape journal under this directory
	// (internal/persist). Epoch E's deliveries travel under the tag
	// (stream, E), the stream derived from the pinned oblivious routing key
	// (DataDir/route.key under Open, else JournalDir/route.key), so every
	// incarnation routes and tags identically. A standby root that opens
	// the same JournalDir replays journaled-but-incomplete epochs under
	// those same tags and parks the recovered answers for clients retrying
	// under their original idempotency IDs (see Op.ID). A partition
	// server's delivery window (transport.Window) makes that exactly-once;
	// Open's in-process partitions keep none — they die with their root,
	// and a restarted process would have lost an in-memory window anyway —
	// so for them it is at-least-once (a retried write answers with its own
	// value), and Open requires DataDir, which they replay onto. Journal
	// shape and write timing are functions of public parameters only. See
	// DESIGN.md §14 for the promotion protocol and the exactly-once
	// argument.
	JournalDir string
	// Failover, when non-nil, enables automatic partition repair: after a
	// partition fails 3 consecutive epochs, the store calls Failover in the
	// background to obtain a replacement client — typically a dialed
	// standby server or a node restored from sealed durable state — and
	// swaps it in, so the next epochs succeed instead of failing that
	// partition's requests forever. Repair timing depends only on the epoch
	// schedule, never on request contents. At most one attempt per
	// partition is in flight at a time; an error leaves the partition
	// degraded and the attempt is retried on the next failing epoch. Health
	// reports the outcome, and Telemetry counts attempts, failovers and
	// time-to-recovery.
	Failover FailoverFunc
	// Telemetry, when non-nil, receives the deployment's counters,
	// histograms, and per-epoch stage spans (see NewTelemetry). Every
	// instrument name, bucket boundary, and recording site is a function
	// of public configuration only, and recording fires once per public
	// event with public payloads — observability adds no side channel
	// beyond what Theorem 3 already makes public. Nil disables telemetry
	// at zero cost.
	Telemetry *Telemetry
}

// FailoverFunc produces a replacement client for failed partition part;
// old is the client being replaced (close it if it holds resources). The
// replacement obeys the same L rule as OpenWithSubORAMs' partitions.
type FailoverFunc func(part int, old SubORAM) (SubORAM, error)

// Store is a running Snoopy deployment.
type Store struct {
	sys       *core.System
	closers   []func() error // Open's partitions and the epoch ticker, closed after the engine drains
	recovered bool           // some partition restored state from DataDir
}

// EpochStats re-exports per-epoch timing (see core.EpochStats).
type EpochStats = core.EpochStats

// SubORAM is a partition a caller hands OpenWithSubORAMs. Each epoch the
// store hands it one delivery, the batches of all L load balancers, to apply
// whole or not at all in one call to its method Deliver(tag, batches), as
// core.SubORAMClient declares it; every partition this package returns has
// it. A SubORAM without Deliver serves only LoadBalancers = 1, where a
// delivery is exactly one batch, which BatchAccess answers.
type SubORAM interface {
	Init(ids []uint64, data []byte) error
	BatchAccess(reqs *store.Requests) (*store.Requests, error)
}

// oneBatch drives a SubORAM without Deliver at L = 1, where a delivery is
// exactly one batch.
type oneBatch struct {
	SubORAM
	out [1]*store.Requests
}

func (o *oneBatch) Deliver(_ store.DeliveryTag, batches []*store.Requests) ([]*store.Requests, error) {
	var err error
	o.out[0], err = o.BatchAccess(batches[0])
	return o.out[:], err
}

// partition is sub as the engine drives it: through its own Deliver, or, at
// L = 1 only, through BatchAccess.
func partition(sub SubORAM, lbs int) (core.SubORAMClient, error) {
	if d, ok := sub.(core.SubORAMClient); ok {
		return d, nil
	}
	if lbs > 1 {
		return nil, fmt.Errorf("snoopy: a SubORAM without Deliver serves only LoadBalancers = 1, not %d: an epoch's %d batches must apply whole or not at all", lbs, lbs)
	}
	return &oneBatch{SubORAM: sub}, nil
}

// Open starts an in-process deployment: SubORAMs partitions built by
// persist.NewPartition, under DataDir/part-NNN when DataDir is set, each
// scanning with its share of GOMAXPROCS.
func Open(cfg Config) (*Store, error) {
	if cfg.JournalDir != "" && cfg.DataDir == "" {
		return nil, errors.New("snoopy: JournalDir requires DataDir: a journaled root replays onto partitions that survive it")
	}
	n := max(cfg.SubORAMs, 1)
	var routeKey *crypt.Key
	if cfg.DataDir != "" {
		// Objects are reachable only at the partitions they persisted in.
		entries, _ := os.ReadDir(cfg.DataDir)
		have := 0
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "part-") {
				have++
			}
		}
		if have != 0 && have != n {
			return nil, fmt.Errorf("snoopy: data dir %s holds %d partitions, configured %d", cfg.DataDir, have, n)
		}
		key, err := persist.LoadOrCreateRoutingKey(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		routeKey = &key
	}
	st := &Store{}
	workers := max(1, runtime.GOMAXPROCS(0)/n)
	subs := make([]SubORAM, n)
	for i := range subs {
		dir := ""
		if cfg.DataDir != "" {
			dir = filepath.Join(cfg.DataDir, fmt.Sprintf("part-%03d", i))
		}
		sub, recovered, closer, err := persist.NewPartition(cfg.BlockSize, workers, cfg.Sealed, dir, cfg.DiskResident, cfg.Telemetry)
		if err != nil {
			st.closeParts()
			return nil, fmt.Errorf("snoopy: partition %d: %w", i, err)
		}
		subs[i], st.recovered, st.closers = sub, st.recovered || recovered, append(st.closers, closer)
	}
	if err := st.startRoot(cfg, subs, routeKey); err != nil {
		st.closeParts()
		return nil, err
	}
	return st, nil
}

// OpenWithSubORAMs starts a deployment over caller-provided partitions —
// typically transport.RemoteSubORAM handles from DialSubORAM.
func OpenWithSubORAMs(cfg Config, subs []SubORAM) (*Store, error) {
	st := &Store{}
	if err := st.startRoot(cfg, subs, nil); err != nil {
		st.closeParts()
		return nil, err
	}
	return st, nil
}

// startRoot starts the store's root over subs, routing by routeKey when it
// is set, and its epoch ticker when cfg.Epoch > 0.
func (st *Store) startRoot(cfg Config, subs []SubORAM, routeKey *crypt.Key) error {
	lbs := max(cfg.LoadBalancers, 1)
	parts := make([]core.SubORAMClient, len(subs))
	for i, sub := range subs {
		var err error
		if parts[i], err = partition(sub, lbs); err != nil {
			return err
		}
	}
	var failover core.FailoverFunc
	if cfg.Failover != nil {
		failover = func(part int, old core.SubORAMClient) (core.SubORAMClient, error) {
			given, _ := old.(SubORAM) // every partition came through partition
			if o, ok := old.(*oneBatch); ok {
				given = o.SubORAM
			}
			repl, err := cfg.Failover(part, given)
			if err != nil || repl == nil {
				return nil, err
			}
			return partition(repl, lbs)
		}
	}
	var ticks <-chan time.Time
	if cfg.Epoch > 0 {
		t := time.NewTicker(cfg.Epoch)
		st.closers, ticks = append(st.closers, func() error { t.Stop(); return nil }), t.C
	}
	var err error
	st.sys, err = core.NewWithSubORAMs(core.Config{
		BlockSize:        cfg.BlockSize,
		NumLoadBalancers: lbs,
		Lambda:           cfg.Lambda,
		Ticks:            ticks,
		JournalDir:       cfg.JournalDir,
		Failover:         failover,
		Telemetry:        cfg.Telemetry,
		RouteKey:         routeKey,
	}, parts)
	return err
}

// Load initializes the store's object set (call once, before requests).
// Keys must be ≤ MaxKey. Iteration order does not matter.
func (s *Store) Load(objects map[uint64][]byte) error {
	ids := make([]uint64, 0, len(objects))
	for id := range objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	block := s.sys.BlockSize()
	data := make([]byte, len(ids)*block)
	for i, id := range ids {
		copy(data[i*block:(i+1)*block], objects[id])
	}
	return s.sys.Init(ids, data)
}

// LoadSlices initializes the store from parallel id/value slices, where
// data holds len(ids) fixed-size blocks.
func (s *Store) LoadSlices(ids []uint64, data []byte) error {
	return s.sys.Init(ids, data)
}

// Read returns the value stored under key. ok is false if the key was not
// part of the loaded object set.
func (s *Store) Read(key uint64) (value []byte, ok bool, err error) {
	return wait(s.ReadAsync(key))
}

// Write replaces the value under key, returning the value the object had
// at the start of the write's epoch. Writes to unknown keys are no-ops
// with ok == false.
func (s *Store) Write(key uint64, value []byte) (previous []byte, ok bool, err error) {
	return wait(s.WriteAsync(key, value))
}

// ReadAsync submits without blocking; the returned function waits.
func (s *Store) ReadAsync(key uint64) (func() ([]byte, bool, error), error) {
	return s.sys.Submit(core.Request{Op: store.OpRead, Key: key})
}

// WriteAsync submits without blocking; the returned function waits.
func (s *Store) WriteAsync(key uint64, value []byte) (func() ([]byte, bool, error), error) {
	return s.sys.Submit(core.Request{Op: store.OpWrite, Key: key, Value: value})
}

// wait blocks on a submitted request's answer, or returns its submit error.
func wait(w func() ([]byte, bool, error), err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	return w()
}

// ErrRootDown is returned by requests in flight when the load-balancer
// root crashes. With Config.JournalDir set, retry the request with the
// same idempotency ID (Op.ID) against the promoted standby (a store Opened on the
// same JournalDir): if the dead root had journaled the epoch, the standby
// replays it and returns the original answer; if not, the request was
// never applied and the retry executes it exactly once.
var ErrRootDown = core.ErrRootDown

// Flush, with Epoch == 0, runs one epoch and returns after it has replied.
// With Epoch > 0 it starts nothing: it returns once the next tick's epoch
// has replied, so every request submitted before the call is answered.
func (s *Store) Flush() { s.sys.Flush() }

// Stats returns the most recent epoch's timing breakdown.
func (s *Store) Stats() EpochStats { return s.sys.LastEpochStats() }

// TotalDropped returns the cumulative batch-overflow drops (expect 0).
func (s *Store) TotalDropped() uint64 { return s.sys.TotalDropped() }

// HealthStats re-exports per-partition failure counters (see
// core.HealthStats).
type HealthStats = core.HealthStats

// Health returns per-partition failure counters: which partitions are
// currently failing (and for how many consecutive epochs), how often each
// has failed overall, and how many times each has been failed over to a
// replacement (see Config.Failover). A failed partition degrades only its
// own requests; the rest of the store keeps serving. HealthStats.Healthy
// reports whether every partition is serving with no repair in flight.
func (s *Store) Health() HealthStats { return s.sys.Health() }

// Recovered reports whether Open restored partition state from
// Config.DataDir. A recovered store is ready to serve requests without
// Load; calling Load anyway replaces the recovered object set.
func (s *Store) Recovered() bool { return s.recovered }

// BlockSize returns the configured object size.
func (s *Store) BlockSize() int { return s.sys.BlockSize() }

// Close stops the deployment; pending requests fail with an error.
func (s *Store) Close() {
	s.sys.Close()
	s.closeParts()
}

// closeParts releases the partitions Open built and stops the ticker.
func (s *Store) closeParts() {
	for _, c := range s.closers {
		c()
	}
}

// ---- Remote deployment helpers ----

// Platform is the simulated attestation authority shared by a deployment.
type Platform = enclave.Platform

// Measurement identifies an enclave program.
type Measurement = enclave.Measurement

// NewPlatform creates a fresh attestation authority.
func NewPlatform() *Platform { return enclave.NewPlatform() }

// Measure hashes a program identity.
func Measure(program string) Measurement { return enclave.Measure(program) }

// DialSubORAM connects to a remote subORAM over an attested, encrypted
// channel, verifying its measurement. Default failure handling applies:
// per-RPC deadlines and attested reconnect with exponential backoff (see
// DialConfig for tuning).
func DialSubORAM(addr string, p *Platform, want Measurement) (SubORAM, error) {
	return transport.Dial(addr, p, want)
}

// DialConfig tunes a remote subORAM connection's failure handling. Every
// field is public deployment configuration: timeouts and retry schedules
// are functions of these values alone, never of request contents, so
// failure-path timing leaks nothing the epoch schedule does not already
// make public. The zero value gives the defaults (5s dial, 30s RPC, 4
// reconnect attempts with jittered exponential backoff).
type DialConfig struct {
	// DialTimeout bounds TCP connect plus the attested handshake.
	DialTimeout time.Duration
	// RPCTimeout bounds one batch RPC attempt. Zero derives it from Epoch
	// when that is set (20 epochs, floored at 2s), else defaults to 30s.
	RPCTimeout time.Duration
	// Retries is the reconnect budget after a failed RPC: 0 means the
	// default (4), negative disables retries.
	Retries int
	// Epoch, when set, derives RPCTimeout from the deployment's epoch
	// duration if RPCTimeout is zero.
	Epoch time.Duration
	// Telemetry, when non-nil, counts this connection's RPC latency,
	// retries, reconnects, and failures (transport_* instruments). All
	// recording sites fire on connection-level events the network
	// adversary already observes.
	Telemetry *Telemetry
}

// DialSubORAMConfig is DialSubORAM with explicit failure-handling
// configuration.
func DialSubORAMConfig(addr string, p *Platform, want Measurement, cfg DialConfig) (SubORAM, error) {
	opts := transport.Options{
		DialTimeout: cfg.DialTimeout,
		RPCTimeout:  cfg.RPCTimeout,
		MaxRetries:  cfg.Retries,
		Telemetry:   cfg.Telemetry,
	}
	if opts.RPCTimeout <= 0 && cfg.Epoch > 0 {
		opts.RPCTimeout = transport.OptionsForEpoch(cfg.Epoch).RPCTimeout
	}
	return transport.DialOptions(addr, p, want, opts)
}

// NewLocalSubORAM creates an in-process partition (useful to mix local and
// remote partitions, or to serve one with ServeSubORAM).
func NewLocalSubORAM(blockSize, workers int, sealed bool) *suboram.SubORAM {
	return suboram.New(suboram.Config{BlockSize: blockSize, Workers: workers, Sealed: sealed})
}

// ---- Telemetry (oblivious-safe observability) ----

// Telemetry is a process-wide registry of counters, gauges, fixed-bucket
// histograms, and per-epoch stage spans (internal/telemetry). Its design
// invariant is that observability must not reinstate the side channel the
// store exists to close: every instrument name, label, and bucket boundary
// is fixed at registration from public configuration; every recording site
// fires unconditionally once per public event (an epoch, a batch, a
// connection) with public payloads (epoch number, partition index, padded
// batch size α); and all timing flows through the registry's replaceable
// monotonic clock. Pass one registry to Config.Telemetry and/or
// DialConfig.Telemetry, then expose it with ServeTelemetry.
type Telemetry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a registry's instruments
// and recent epoch spans (see Telemetry.Snapshot).
type TelemetrySnapshot = telemetry.Snapshot

// EpochSpan is one recorded stage span in an epoch trace.
type EpochSpan = telemetry.Span

// NewTelemetry creates an empty telemetry registry with a real monotonic
// clock. A nil *Telemetry is also valid everywhere and records nothing.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// ServeTelemetry serves the operator surface for a registry on addr:
// GET /metrics (plain-text instrument dump), GET /trace/epochs?n=N (the
// last N stage spans as JSON, canonically ordered), and net/http/pprof
// under /debug/pprof/. It returns the bound address (useful with ":0")
// and a function that shuts the server down.
func ServeTelemetry(addr string, t *Telemetry) (string, func() error, error) {
	return telemetry.Serve(addr, t)
}

// ---- Planner ----

// Plan is a deployment recommendation (see internal/planner).
type Plan = planner.Plan

// PlanDeployment runs the paper's §6 planner: it calibrates component
// costs on this machine, then returns the cheapest (load balancers,
// subORAMs) configuration that sustains minThroughput requests/second
// under the average-latency bound for the given data size, its machines
// joined by the paper's testbed link.
func PlanDeployment(objects, blockSize int, minThroughput float64, maxLatency time.Duration) (Plan, error) {
	model, err := planner.Calibrate(blockSize, 128, planner.Testbed)
	if err != nil {
		return Plan{}, err
	}
	return planner.Optimize(planner.Requirements{
		Objects:       objects,
		MinThroughput: minThroughput,
		MaxLatency:    maxLatency,
	}, model, planner.DefaultPrices())
}

// ---- Batched client API ----

// Op is one operation submitted via Do.
type Op struct {
	Write bool
	Key   uint64
	Value []byte // writes only
	// User is the ACL principal (0 when access control is disabled).
	User uint64
	// ID is an idempotency ID for exactly-once retry across root failover
	// (Config.JournalDir): unique per logical request and non-zero — 0
	// means untracked, at-least-once. A retry of an already-answered ID
	// returns the original answer from the root's reply window instead of
	// re-executing.
	ID uint64
}

// Result is the outcome of one Op: Value is the object's value at the
// start of the epoch (for writes too, per batch semantics); Found reports
// whether the key exists and — with ACL enabled — the op was permitted.
type Result struct {
	Value []byte
	Found bool
	Err   error
}

// Do submits all ops and waits for their epoch(s) to complete, returning
// one Result per op in order. Ops land in the same epoch when submitted
// between flushes, so a Do batch typically completes together. Do is the
// one way to carry an ACL user or an idempotency ID.
func (s *Store) Do(ops []Op) []Result {
	waits := make([]func() ([]byte, bool, error), len(ops))
	results := make([]Result, len(ops))
	for i, op := range ops {
		r := core.Request{Op: store.OpRead, Key: op.Key, User: op.User, ID: op.ID}
		if op.Write {
			r.Op, r.Value = store.OpWrite, op.Value
		}
		w, err := s.sys.Submit(r)
		if err != nil {
			results[i] = Result{Err: err}
			continue
		}
		waits[i] = w
	}
	for i, w := range waits {
		if w == nil {
			continue
		}
		v, found, err := w()
		results[i] = Result{Value: v, Found: found, Err: err}
	}
	return results
}
