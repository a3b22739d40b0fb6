// Package suboram implements Snoopy's throughput-optimized subORAM (paper
// §5, Fig. 7, Fig. 19): an oblivious object store that only supports batched
// accesses. A batch of distinct requests is turned into an oblivious
// two-tier hash table; a single linear scan over the stored partition then
// services every request at once. The amortized per-request cost of the scan
// beats polylogarithmic ORAMs in the high-throughput regime the system
// targets.
//
// Obliviousness: the scan visits every object in a fixed order and, for each
// object, reads the two hash-table buckets its identifier maps to under the
// batch's own key, touching every slot in both buckets with branch-free
// compare-and-set operations — one kernel call per run of objects, a pair of
// objects at a time streaming a single tier-2 bucket once. Request contents
// influence no access position.
package suboram

import (
	"fmt"
	"sync"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// Config configures a subORAM.
type Config struct {
	// BlockSize is the object value size in bytes.
	BlockSize int
	// Hash carries the hash table's security parameter (zero means 128).
	// The table's shape is ohash.GeometryFor's function of the batch size,
	// the partition size and that parameter; the subORAM fills in Objects,
	// Rec and Pool itself.
	Hash ohash.Params
	// Workers bounds scan parallelism (paper Fig. 13b). 0 means 1.
	Workers int
	// Sealed keeps the partition in enclave-external memory (paper §7): New
	// sets Store to the segment store over host memory, under a fresh key.
	// Slower, but models the real deployment where the partition exceeds
	// the EPC. Mutually exclusive with Store.
	Sealed bool
	// Store, when non-nil, keeps the partition outside the enclave in a
	// sealed block store (internal/segstore, over host memory or disk): the
	// linear scan streams sealed segments through a pooled buffer, so the
	// partition can exceed enclave memory, or on disk all memory, by orders
	// of magnitude. Only object identifiers stay resident. The scan's I/O
	// pattern remains a function of public parameters (partition size,
	// segment geometry).
	Store BlockStore
	// Rec, when non-nil, records the batch access trace. Test-only;
	// requires Workers == 1.
	Rec *trace.Recorder
	// Pool supplies per-batch working memory (response sets, worker table
	// copies). Nil means arena.Default.
	Pool *arena.Pool
	// Telemetry, when non-nil, records build/scan/extract durations, batch
	// and row counters, the largest table built so far (its slots and its
	// slots per lookup) and which scan-kernel body the platform selected. One
	// recording per batch, payloads are functions of the public padded batch
	// size α, partition size and λ — never of request contents; nil disables
	// recording.
	Telemetry *telemetry.Registry
}

// BlockStore is the contract a sealed partition backend must meet
// (satisfied by *segstore.Store). The scan callback signature is spelled
// literally so implementations need no types from this package.
//
// Obliviousness contract: Scan and Verify must stream blocks [lo, hi) in a
// fixed order with an I/O pattern that is a function of (lo, hi) and public
// geometry only — never of block contents or of what fn does to them — and
// must hand fn every block exactly once, in runs of consecutive blocks whose
// bounds are a function of the same; Scan writes every block back whether or
// not fn changed it.
type BlockStore interface {
	// Format sizes the store for n blocks (zeroed); prior contents are
	// replaced.
	Format(n int) error
	// NumBlocks returns the formatted partition size in blocks.
	NumBlocks() int
	// ScanAlign returns the block alignment scan ranges must honor; worker
	// splits round to it so each segment is streamed by exactly one worker.
	ScanAlign() int
	// Begin and Commit bracket one batch's scans: every block written
	// between them is sealed under the next epoch, and Commit makes that
	// the epoch every block must authenticate at.
	Begin()
	Commit() error
	// Scan streams blocks [lo, hi), applying fn in place to each run of
	// blocks — i the first block's index, blks the run's blocks back to
	// back — and writing every block back. lo and hi must be
	// ScanAlign()-aligned (hi == NumBlocks() is always allowed). Concurrent
	// calls over disjoint aligned ranges must be safe.
	Scan(lo, hi int, fn func(i int, blks []byte)) error
	// Verify streams blocks [lo, hi) read-only, authenticating each segment
	// once and handing its run of blocks to fn.
	Verify(lo, hi int, fn func(i int, blks []byte)) error
	// LoadRange bulk-writes packed block data starting at block index start.
	LoadRange(start int, data []byte) error
}

// Stats reports where a batch spent its time (paper Fig. 12's "SubORAM
// (process batch)" component, further broken down).
type Stats struct {
	Build   time.Duration // oblivious hash table construction
	Scan    time.Duration // linear scan over the partition
	Extract time.Duration // response compaction

	// The batch's table, a function of the public (batch size, partition
	// size, λ): its total slots and the slots scanned per stored object.
	TableSlots     int
	SlotsPerLookup int
}

// Total returns the end-to-end processing time.
func (s Stats) Total() time.Duration { return s.Build + s.Scan + s.Extract }

// SubORAM holds one data partition.
type SubORAM struct {
	cfg      Config
	builders []*ohash.Builder // builders[i] builds a delivery's i-th table (guarded by mu)

	mu    sync.Mutex // serializes batches (paper: fixed batch order)
	ids   []uint64
	plain []byte // n×BlockSize, unless the partition lives in cfg.Store
	last  Stats

	// Per-batch scratch, reused across batches (guarded by mu):
	zeroBlk    []byte        // the all-zero miss response block
	workTables []ohash.Table // scan-worker table copies (structs reused)
	workErrs   []error
	// A delivery's tables between build and scan, and Deliver's
	// returned slice (valid until the next call, like all scratch here).
	tables []*ohash.Table
	outs   []*store.Requests

	// Per-worker scan state (table binding, kernel view, hashed stripe),
	// bound per batch under mu before workers start.
	scanCtx []scanCtx
	// Per-run scan callbacks: one prebound closure pair per worker (plain,
	// and recording for the test recorders), created once in New so
	// steady-state scans allocate nothing. Each reads its table through
	// scanCtx[w].
	visits [][2]func(i int, blks []byte)

	// Telemetry instruments, resolved once at construction; all nil (and
	// no-ops) when Config.Telemetry is nil.
	telBuild   *telemetry.Histogram
	telScan    *telemetry.Histogram
	telExtract *telemetry.Histogram
	telBatches *telemetry.Counter
	telRows    *telemetry.Counter
	telSlots   *telemetry.Gauge
	telLookup  *telemetry.Gauge
}

// New creates an empty subORAM.
func New(cfg Config) *SubORAM {
	if cfg.BlockSize <= 0 {
		panic("suboram: BlockSize must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Sealed {
		if cfg.Store != nil {
			panic("suboram: Store and Sealed are mutually exclusive")
		}
		cfg.Store, _ = sealedMemory(cfg, 0)
	}
	if cfg.Pool == nil {
		cfg.Pool = arena.Default
	}
	cfg.Hash.Rec, cfg.Hash.Pool = cfg.Rec, cfg.Pool
	s := &SubORAM{
		cfg:        cfg,
		zeroBlk:    make([]byte, cfg.BlockSize),
		scanCtx:    make([]scanCtx, cfg.Workers),
		telBuild:   cfg.Telemetry.Histogram("suboram_build", nil),
		telScan:    cfg.Telemetry.Histogram("suboram_scan", nil),
		telExtract: cfg.Telemetry.Histogram("suboram_extract", nil),
		telBatches: cfg.Telemetry.Counter("suboram_batches_total"),
		telRows:    cfg.Telemetry.Counter("suboram_rows_total"),
		telSlots:   cfg.Telemetry.Gauge("suboram_table_slots"),
		telLookup:  cfg.Telemetry.Gauge("suboram_slots_per_lookup"),
	}
	// Which body of the scan kernel this platform selected: an info gauge,
	// constant 1, the body in its label. A public property of the host.
	cfg.Telemetry.Gauge(`snoopy_kernel_info{isa="` + obliv.Kernel() + `"}`).Set(1)
	s.setIDs(nil)
	s.visits = make([][2]func(i int, blks []byte), cfg.Workers)
	for w := range s.visits {
		c := &s.scanCtx[w]
		s.visits[w] = [2]func(i int, blks []byte){
			func(i int, blks []byte) { s.scanRun(c, i, blks, false) },
			func(i int, blks []byte) { s.scanRun(c, i, blks, true) },
		}
	}
	return s
}

// scanStripe is how many objects' buckets a scan worker hashes at a time,
// ahead of one kernel call: identifiers are public and contiguous, so a
// stripe's hashes run eight lanes a step (crypt.SipBucketsN), and the
// kernel knows each next bucket in time to prefetch it. Even, so a stripe
// splits into whole pairs.
const scanStripe = 64

// scanCtx is one scan worker's per-batch state: the table (copy) it scans,
// the kernel's view of both tiers (which owns the mask scratch, sized from
// the public geometry), and the buckets of the stripe being scanned.
type scanCtx struct {
	table  *ohash.Table
	tiers  obliv.Tiers
	b1, b2 [scanStripe]uint32
}

// bind points the worker at its table for this batch.
func (c *scanCtx) bind(table *ohash.Table) {
	c.table = table
	g := table.Geom
	t1, t2 := table.Tier1, table.Tier2
	c.tiers.T1.Bind(t1.Key, t1.Tag, t1.Op, t1.Aux, t1.Data, g.Z1, t1.BlockSize)
	c.tiers.T2.Bind(t2.Key, t2.Tag, t2.Op, t2.Aux, t2.Data, g.Z2, t2.BlockSize)
}

// Init loads the partition: object i has identifier ids[i] and value
// data[i*BlockSize:(i+1)*BlockSize]. Identifiers must be distinct and below
// store.DummyKeyBit.
func (s *SubORAM) Init(ids []uint64, data []byte) error {
	if len(data) != len(ids)*s.cfg.BlockSize {
		return fmt.Errorf("suboram: data length %d != %d objects × %d bytes",
			len(data), len(ids), s.cfg.BlockSize)
	}
	if err := store.CheckIDs(ids); err != nil {
		return fmt.Errorf("suboram: %w", err)
	}
	return s.load(ids, data)
}

// setIDs adopts the partition's identifier set and tells the table builder
// its size: the hash table is shaped for the partition it will be scanned
// against. Caller holds mu (or is the constructor).
func (s *SubORAM) setIDs(ids []uint64) {
	s.ids = append([]uint64(nil), ids...)
	s.cfg.Hash.Objects = len(ids)
	clear(s.builders)
	s.builders = s.builders[:0]
}

func (s *SubORAM) load(ids []uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setIDs(ids)
	if s.cfg.Store == nil {
		s.plain = append([]byte(nil), data...)
		return nil
	}
	// Size the store for the partition and stream the values in, at the
	// committed epoch. Only the identifiers stay enclave-resident (they drive
	// the bucket addressing and must not leave it in the clear).
	s.plain = nil
	if err := s.cfg.Store.Format(len(ids)); err != nil {
		return err
	}
	if err := s.cfg.Store.LoadRange(0, data); err != nil {
		return err
	}
	return s.cfg.Store.Commit()
}

// NumObjects returns the partition size.
func (s *SubORAM) NumObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// LastStats returns the timing breakdown of the most recent delivery, summed
// over its batches; the table shape is its last batch's.
func (s *SubORAM) LastStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// BatchAccess processes a batch of requests with distinct keys and returns
// one response row per request (paper Fig. 19). Read responses carry the
// object value; write responses carry the pre-write value (§C); requests
// for absent keys (including load-balancer dummies) come back zeroed with
// Aux == 0. The batch says what order it is in (ohash.Builder.Build): its
// rows carry the table key the load balancer derived for it and ascend in
// that key's table order. Rows come back in the order received — the
// residents, then vacant rows where the batch had its dummies — echoing the
// key in their Seq and Client columns. The input is not modified.
func (s *SubORAM) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	one := [1]*store.Requests{reqs}
	outs, err := s.deliver(one[:])
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Deliver applies one delivery — an epoch's batches in load-balancer
// order — whole or not at all: after the delivery gate
// (ohash.CheckDelivery), every table is built (overflow) before any scan.
// Tables are functions of the requests alone, so batch i+1's scan still
// sees batch i's writes. The partition keeps no delivery window, so it ignores the tag.
// The returned slice is scratch reused by the next call.
func (s *SubORAM) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deliver(reqs)
}

// deliver is Deliver; the caller holds mu while it reads the scratch.
func (s *SubORAM) deliver(reqs []*store.Requests) ([]*store.Requests, error) {
	if err := ohash.CheckDelivery(s.cfg.BlockSize, reqs); err != nil {
		return nil, err
	}
	var st Stats
	s.tables = s.tables[:0]
	for i, r := range reqs {
		if i == len(s.builders) {
			s.builders = append(s.builders, ohash.NewBuilder(s.cfg.Hash))
		}
		t0, tt0 := time.Now(), s.cfg.Telemetry.Now()
		table, err := s.builders[i].Build(r) // valid until builder i's next Build
		if err != nil {
			return nil, err
		}
		st.Build += time.Since(t0)
		s.telBuild.Observe(time.Duration(s.cfg.Telemetry.Now() - tt0))
		s.tables = append(s.tables, table)
	}
	if err := s.scan(s.tables, &st); err != nil {
		return nil, err
	}
	// Answer each batch in the order received, misses zeroed, echoing its
	// key; one recording per batch, its payload the public padded size α.
	s.outs = s.outs[:0]
	for _, table := range s.tables {
		t0, tt0 := time.Now(), s.cfg.Telemetry.Now()
		out := table.Extract()
		for i := 0; i < out.Len(); i++ {
			obliv.CondCopyBytes(obliv.Not(out.Aux[i]), out.Block(i), s.zeroBlk)
		}
		out.StampKey(table.K)
		st.Extract += time.Since(t0)
		st.TableSlots, st.SlotsPerLookup = table.Geom.Slots(), table.Geom.SlotsScannedPerLookup()
		s.telExtract.Observe(time.Duration(s.cfg.Telemetry.Now() - tt0))
		s.telBatches.Inc()
		s.telRows.Add(uint64(out.Len()))
		// High-water marks: partitions share the registry, and a last-writer
		// gauge would read whichever worker happened to finish last.
		s.telSlots.SetMax(int64(st.TableSlots))
		s.telLookup.SetMax(int64(st.SlotsPerLookup))
		s.outs = append(s.outs, out)
	}
	s.last = st
	return s.outs, nil
}

// scan runs the linear pass once per table, in order; a store-backed
// partition's passes are one store epoch, bracketed here and nowhere else,
// so a slot replayed from any earlier delivery fails.
func (s *SubORAM) scan(tables []*ohash.Table, st *Stats) error {
	if s.cfg.Store != nil {
		s.cfg.Store.Begin()
	}
	for i, table := range tables {
		t0, tt0 := time.Now(), s.cfg.Telemetry.Now()
		err := s.fanOut(table)
		if err == nil && s.cfg.Store != nil && i == len(tables)-1 {
			err = s.cfg.Store.Commit()
		}
		if err != nil {
			return err
		}
		st.Scan += time.Since(t0)
		s.telScan.Observe(time.Duration(s.cfg.Telemetry.Now() - tt0))
	}
	return nil
}

// fanOut runs the pass across workers. Each worker owns a disjoint object
// range and a private copy of the hash table; copies are obliviously merged
// by found-bit afterwards, so concurrent workers never race on table slots.
func (s *SubORAM) fanOut(table *ohash.Table) error {
	n := len(s.ids)
	workers := s.cfg.Workers
	if workers > n {
		workers = max(1, n)
	}
	if workers <= 1 || n == 0 {
		return s.scanRange(table, 0, n, 0)
	}

	// Worker table copies come from the arena (the structs themselves are
	// reused across batches); worker 0 scans the primary table in place.
	pool := s.cfg.Pool
	if cap(s.workTables) < workers {
		s.workTables = make([]ohash.Table, workers)
		s.workErrs = make([]error, workers)
	}
	copies := s.workTables[:workers]
	errs := s.workErrs[:workers]
	for w := 1; w < workers; w++ {
		copies[w] = *table // shape and key; the tiers are replaced below
		copies[w].Tier1 = pool.GetRequests(table.Tier1.Len(), table.Tier1.BlockSize)
		copies[w].Tier1.CopyPrefix(table.Tier1)
		copies[w].Tier2 = pool.GetRequests(table.Tier2.Len(), table.Tier2.BlockSize)
		copies[w].Tier2.CopyPrefix(table.Tier2)
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	if s.cfg.Store != nil {
		// Store ranges split on segment boundaries so every sealed segment
		// is streamed by exactly one worker — the split depends only on
		// public geometry (n, workers, segment size).
		align := s.cfg.Store.ScanAlign()
		per = (per + align - 1) / align * align
	}
	for w := 0; w < workers; w++ {
		lo, hi := w*per, min((w+1)*per, n)
		if lo >= hi {
			errs[w] = nil
			continue
		}
		w, lo, hi := w, lo, hi
		tbl := table
		if w > 0 {
			tbl = &copies[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = s.scanRange(tbl, lo, hi, w)
		}()
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	// Merge worker copies back into the primary table: a slot changed only
	// in the copy whose object range contained the matching key. Then
	// release the copies' tier storage back to the arena.
	for w := 1; w < workers; w++ {
		if firstErr == nil {
			mergeTier(table.Tier1, copies[w].Tier1)
			mergeTier(table.Tier2, copies[w].Tier2)
		}
		pool.PutRequests(copies[w].Tier1)
		pool.PutRequests(copies[w].Tier2)
		copies[w] = ohash.Table{}
	}
	return firstErr
}

func mergeTier(dst, src *store.Requests) {
	for i := 0; i < dst.Len(); i++ {
		c := src.Aux[i]
		obliv.CondCopyBytes(c, dst.Block(i), src.Block(i))
		obliv.CondSetU8(c, &dst.Aux[i], 1)
	}
}

// scanRange scans objects [lo, hi) against the table as worker w: in
// memory as one run, in a store as the runs it streams (its segments). The
// test-only recorders are looked at here, once per range: with one set,
// every run is recorded before it is scanned.
func (s *SubORAM) scanRange(table *ohash.Table, lo, hi, w int) error {
	s.scanCtx[w].bind(table)
	visit := s.visits[w][0]
	if s.cfg.Rec != nil || table.Tier1.Rec != nil || table.Tier2.Rec != nil {
		visit = s.visits[w][1]
	}
	if s.cfg.Store != nil {
		return s.cfg.Store.Scan(lo, hi, visit)
	}
	visit(lo, s.plain[lo*s.cfg.BlockSize:hi*s.cfg.BlockSize])
	return nil
}

// scanRun applies the double oblivious compare-and-set of Fig. 7 step ➋
// between each object of the run from object lo (blks, its blocks back to
// back) and every slot of the two buckets its identifier hashes to: a
// stripe's buckets are hashed, then one obliv.Tiers.ScanRun call scans the
// stripe — pairs of objects when tier 2 is one bucket. With rec, the stripe's
// accesses are recorded first, in the order the kernel makes them.
func (s *SubORAM) scanRun(c *scanCtx, lo int, blks []byte, rec bool) {
	bs := s.cfg.BlockSize
	for i, n := 0, len(blks)/bs; i < n; i += scanStripe {
		m := min(scanStripe, n-i)
		ids := s.ids[lo+i : lo+i+m]
		c.table.Buckets(ids, c.b1[:m], c.b2[:m])
		if rec {
			s.record(c, lo+i, m)
		}
		c.tiers.ScanRun(ids, c.b1[:m], c.b2[:m], blks[i*bs:(i+m)*bs], store.OpWrite)
	}
}

// record logs, for the kernel call on objects [lo, lo+m) of the stripe
// just hashed, what the call touches in the order obliv.Tiers.ScanRun
// touches it: per step of Step() objects, each object, then each one's
// tier-1 bucket slot by slot, then the tier-2 bucket slot by slot — once
// for a pair, whose objects share it.
func (s *SubORAM) record(c *scanCtx, lo, m int) {
	g, step := c.table.Geom, c.tiers.Step()
	for p := 0; p < m; p += step {
		q := min(p+step, m)
		for i := p; i < q; i++ {
			s.cfg.Rec.Record(trace.KindTouch, lo+i, 0)
		}
		for i := p; i < q; i++ {
			for sl := int(c.b1[i]) * g.Z1; sl < (int(c.b1[i])+1)*g.Z1; sl++ {
				c.table.Tier1.Touch(sl)
			}
		}
		for sl := int(c.b2[p]) * g.Z2; sl < (int(c.b2[p])+1)*g.Z2; sl++ {
			c.table.Tier2.Touch(sl)
		}
	}
}

// Restore adopts a trusted state image, skipping Init's duplicate and
// dummy-space validation: the import hook internal/persist uses for Init and
// crash recovery, where the image was validated when first loaded and
// authenticated since. data nil adopts the values already in the configured
// Store (the disk placement, whose store is the image) without re-streaming
// them; otherwise behaviour is identical to Init.
func (s *SubORAM) Restore(ids []uint64, data []byte) error {
	if data == nil && s.cfg.Store != nil {
		if got := s.cfg.Store.NumBlocks(); got != len(ids) {
			return fmt.Errorf("suboram: store holds %d blocks, identifier set names %d", got, len(ids))
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.setIDs(ids)
		return nil
	}
	if len(data) != len(ids)*s.cfg.BlockSize {
		return fmt.Errorf("suboram: data length %d != %d objects × %d bytes",
			len(data), len(ids), s.cfg.BlockSize)
	}
	return s.load(ids, data)
}

// Export returns a copy of the partition contents (ids and packed data) —
// the state-migration path used by checkpoints and replica resynchronization.
func (s *SubORAM) Export() (ids []uint64, data []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids = append([]uint64(nil), s.ids...)
	data = make([]byte, len(s.ids)*s.cfg.BlockSize)
	if s.cfg.Store == nil {
		copy(data, s.plain)
		return ids, data, nil
	}
	// One streaming pass: each segment is opened once, not once per block.
	bs := s.cfg.BlockSize
	if err := s.cfg.Store.Verify(0, len(s.ids), func(i int, blks []byte) {
		copy(data[i*bs:], blks)
	}); err != nil {
		return nil, nil, err
	}
	return ids, data, nil
}

// sealedMemory is the Sealed placement: the segment store over host memory,
// formatted empty, under a key that never leaves this subORAM. It returns
// the host memory too, which only the tests playing the host look at.
// segBlocks is the segment size in blocks; 0 means the store's default.
func sealedMemory(cfg Config, segBlocks int) (*segstore.Store, *hostfs.Mem) {
	mem := hostfs.NewMem()
	st, err := segstore.Open("", segstore.Options{
		BlockSize: cfg.BlockSize, SegmentBlocks: segBlocks, Key: crypt.MustNewKey(), FS: mem, Telemetry: cfg.Telemetry,
	})
	if err == nil {
		err = st.Format(0)
	}
	if err != nil {
		panic("suboram: sealed memory store: " + err.Error()) // host memory cannot fail
	}
	return st, mem
}
