package loadbalancer

import (
	"fmt"
	"sync"
	"time"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
)

// LeafBalancer is one leaf of the two-level aggregation tree: it turns its
// own clients' epoch requests into the sub-major sorted, locally deduped,
// α-padded run the root merges. In-process leaves are *Leaf; remote leaves
// (transport.RemoteLeaf) forward the same run over an attested channel.
// Implementations must write exactly α·S rows into dst — the run shape is a
// function of public parameters (aggregate R, S, λ) only.
type LeafBalancer interface {
	// BuildRun sorts + locally dedupes reqs into dst (a view into the
	// root's merge scratch, α·S rows). seqBase is the leaf's public
	// sequence offset, giving writes a globally consistent last-write-wins
	// order across leaves. Returns the leaf's local Theorem-3 overflow
	// victims (nil in the overwhelmingly common case).
	BuildRun(epoch uint64, reqs *store.Requests, alpha int, seqBase uint64, dst *store.Requests) ([]uint64, error)
}

// Leaf is the in-process LeafBalancer: a stateless oblivious sorter sharing
// the deployment's routing key. Its run construction is exactly the
// monolithic batch build (sort, keep-first-α-distinct-per-subORAM, compact,
// pad), so a leaf run is itself a valid batch set for the aggregate rate —
// the invariant the root's merge relies on.
type Leaf struct {
	lb    *LoadBalancer
	index int

	telSort *telemetry.Histogram
	telRuns *telemetry.Counter
}

// NewLeaf creates leaf index of a tree plane. key is the deployment's
// shared object→subORAM routing key; cfg matches the root's configuration.
func NewLeaf(cfg Config, key crypt.Key, index int) *Leaf {
	return &Leaf{
		lb:      New(cfg, key),
		index:   index,
		telSort: cfg.Telemetry.Histogram("lb_leaf_sort", nil),
		telRuns: cfg.Telemetry.Counter("lb_leaf_runs_total"),
	}
}

// Index returns the leaf's position in its plane.
func (lf *Leaf) Index() int { return lf.index }

// BuildRun implements LeafBalancer.
func (lf *Leaf) BuildRun(_ uint64, reqs *store.Requests, alpha int, seqBase uint64, dst *store.Requests) ([]uint64, error) {
	tt0 := lf.lb.cfg.Telemetry.Now()
	if want := alpha * lf.lb.cfg.NumSubORAMs; dst.Len() != want {
		return nil, fmt.Errorf("loadbalancer: leaf %d run destination holds %d rows, want %d", lf.index, dst.Len(), want)
	}
	run, droppedKeys, err := lf.lb.buildRun(reqs, alpha, seqBase)
	if err != nil {
		return nil, err
	}
	// The copy into dst models the leaf→root transfer; remote leaves recv
	// straight into dst off the wire.
	dst.CopyRowsPlain(0, run)
	lf.lb.pool().PutRequests(run)
	lf.telSort.Observe(time.Duration(lf.lb.cfg.Telemetry.Now() - tt0))
	lf.telRuns.Inc()
	return droppedKeys, nil
}

// TreeConfig configures a two-level aggregation tree plane.
type TreeConfig struct {
	Config
	// Leaves is the number of leaf load balancers (≥ 1). Leaves == 1
	// degenerates to a monolithic plane with one extra copy.
	Leaves int
	// FanIn caps how many leaf runs the root merges in one epoch; a
	// two-level tree requires Leaves ≤ FanIn. Zero defaults to Leaves.
	// Public deployment configuration, like every shape parameter here.
	FanIn int
	// Plane is this tree's index among the deployment's load-balancer
	// planes. It only labels telemetry spans: the root's span carries Plane
	// and leaf f's spans carry the global feed index Plane·Leaves + f, so
	// planes sharing a registry never emit equal (Epoch, Stage, Part).
	Plane int
}

// Tree is the two-level oblivious aggregation tree: Leaves leaf balancers
// each sort + locally dedupe their own feed, and the root merges the
// already-sorted runs with obliv.MergeSorted — O(n log n) instead of the
// monolithic re-sort's O(n log² n) — then performs global dedupe and
// Theorem-3 padding for the aggregate rate. The schedule (run lengths,
// merge network, batch size) is a function of public (R, S, Leaves, FanIn,
// λ) only.
type Tree struct {
	cfg  TreeConfig
	key  crypt.Key
	root *LoadBalancer

	// leavesMu guards element swaps (ReplaceLeaf/ResetLeaf: leaf failover
	// promotes a replacement in place). The length never changes.
	leavesMu sync.RWMutex
	leaves   []LeafBalancer

	statsMu sync.Mutex
	last    Stats

	// Per-epoch scratch, reused across calls. MakeBatches invocations on
	// one Tree are serialized by the caller (core holds epochMu through
	// stage A); MatchResponses does not touch scratch.
	views    []store.Requests // L+1 run windows into the merge scratch
	runLens  []int            // L+1 run lengths (leaf runs + root dummy run)
	bases    []uint64         // per-leaf public sequence offsets
	alphas   []int            // per-leaf Theorem-3 bound α_f = f(R_f, S)
	leafKeys [][]uint64
	leafErrs []error

	// Telemetry instruments, resolved once at construction; nil-safe.
	telRootMerge *telemetry.Histogram
	telMerges    *telemetry.Counter
	telBatches   *telemetry.Counter
	telDropped   *telemetry.Counter
	stLeaf       *telemetry.SpanStage
	stRoot       *telemetry.SpanStage
	stLeafMatch  *telemetry.SpanStage
}

// NewTree creates a tree plane. key is the deployment-wide routing key
// shared by the root and every leaf (and every other plane).
func NewTree(cfg TreeConfig, key crypt.Key) (*Tree, error) {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 1
	}
	if cfg.FanIn <= 0 {
		cfg.FanIn = cfg.Leaves
	}
	if cfg.Leaves > cfg.FanIn {
		return nil, fmt.Errorf("loadbalancer: %d leaves exceed root fan-in %d (two-level tree)", cfg.Leaves, cfg.FanIn)
	}
	t := &Tree{
		cfg:  cfg,
		key:  key,
		root: New(cfg.Config, key),

		views:    make([]store.Requests, cfg.Leaves+1),
		runLens:  make([]int, cfg.Leaves+1),
		bases:    make([]uint64, cfg.Leaves),
		alphas:   make([]int, cfg.Leaves),
		leafKeys: make([][]uint64, cfg.Leaves),
		leafErrs: make([]error, cfg.Leaves),

		telRootMerge: cfg.Telemetry.Histogram("lb_root_merge", nil),
		telMerges:    cfg.Telemetry.Counter("lb_root_merges_total"),
		telBatches:   cfg.Telemetry.Counter("lb_batches_total"),
		telDropped:   cfg.Telemetry.Counter("lb_overflow_dropped_total"),
		stLeaf:       cfg.Telemetry.Stage("lb_leaf"),
		stRoot:       cfg.Telemetry.Stage("lb_root"),
		stLeafMatch:  cfg.Telemetry.Stage("lb_leaf_match"),
	}
	for i := 0; i < cfg.Leaves; i++ {
		t.leaves = append(t.leaves, NewLeaf(cfg.Config, key, i))
	}
	return t, nil
}

// Feeds returns the leaf count: one client queue per leaf.
func (t *Tree) Feeds() int { return len(t.leaves) }

// FanIn returns the (defaults-filled) root fan-in.
func (t *Tree) FanIn() int { return t.cfg.FanIn }

// Leaf returns the current balancer serving leaf f.
func (t *Tree) Leaf(f int) LeafBalancer {
	t.leavesMu.RLock()
	defer t.leavesMu.RUnlock()
	return t.leaves[f]
}

// ReplaceLeaf swaps in a replacement for leaf f (leaf failover). It serves
// from the next epoch on.
func (t *Tree) ReplaceLeaf(f int, leaf LeafBalancer) {
	t.leavesMu.Lock()
	t.leaves[f] = leaf
	t.leavesMu.Unlock()
}

// ResetLeaf replaces leaf f with a fresh in-process leaf — the default
// promotion source for leaf failover: leaves are stateless between epochs,
// so a restart is a complete repair.
func (t *Tree) ResetLeaf(f int) {
	t.ReplaceLeaf(f, NewLeaf(t.cfg.Config, t.key, f))
}

// fillDummyRun writes the all-dummy α·S run into dst — the neutral element
// of the merge. The root contributes one as its padding reservoir (so leaves
// only pad to their own rate's bound), and it substitutes for a failed leaf
// so the epoch's shape (and the other leaves' service) is unaffected by the
// failure.
func fillDummyRun(dst *store.Requests, alpha, s int) {
	d := 0
	for sub := 0; sub < s; sub++ {
		for j := 0; j < alpha; j++ {
			key := store.DummyKeyBit | uint64(sub)<<32 | uint64(j)
			dst.SetRow(d, store.OpRead, key, uint32(sub), 0, 0, nil)
			d++
		}
	}
}

// TreeRunLens returns the public run-length vector the root merges for an
// epoch: per-leaf runs of α_f·S for each feed's own rate, plus the root's
// α·S dummy run for the aggregate rate. Exported for the planner's cost
// model (obliv.MergeSortedCost over exactly this vector) — the vector is a
// function of public configuration and the public per-feed rates alone.
func TreeRunLens(feedRates []int, s, lambda int) []int {
	runs := make([]int, len(feedRates)+1)
	r := 0
	for f, rf := range feedRates {
		af := batch.Size(rf, s, lambda)
		if af == 0 {
			af = 1
		}
		runs[f] = af * s
		r += rf
	}
	alpha := batch.Size(r, s, lambda)
	if alpha == 0 {
		alpha = 1
	}
	runs[len(feedRates)] = alpha * s
	return runs
}

// TreeRootCost returns the root's oblivious row-operation count for an
// epoch with the given public per-feed rates — merging the TreeRunLens runs
// and compacting the merge — the tree's counterpart of MakeBatchesCost.
func TreeRootCost(feedRates []int, s, lambda int) int {
	runs := TreeRunLens(feedRates, s, lambda)
	merged := 0
	for _, n := range runs {
		merged += n
	}
	return obliv.MergeSortedCost(runs) + obliv.CompactCost(merged)
}

// feedPart is the span Part label of this plane's feed f: its global index.
func (t *Tree) feedPart(f int) int { return t.cfg.Plane*t.cfg.Leaves + f }

// runLeaf builds leaf f's run into its window of the merge scratch. A
// method, not a closure: the serial path must stay allocation-free.
func (t *Tree) runLeaf(f int, epoch uint64, reqs *store.Requests, work *store.Requests, lo int) {
	alpha := t.alphas[f]
	dst := &t.views[f]
	work.ViewInto(dst, lo, lo+alpha*t.cfg.NumSubORAMs)
	tl0 := t.cfg.Telemetry.Now()
	keys, err := t.Leaf(f).BuildRun(epoch, reqs, alpha, t.bases[f], dst)
	t.stLeaf.Record(epoch, t.feedPart(f), alpha, tl0, t.cfg.Telemetry.Now())
	t.leafKeys[f], t.leafErrs[f] = keys, err
	if err != nil {
		// A dead leaf fails only its own clients: its segment becomes the
		// neutral all-dummy run and the epoch proceeds.
		fillDummyRun(dst, alpha, t.cfg.NumSubORAMs)
	}
}

// MakeBatches implements Balancer: leaves build their runs (in parallel
// unless SortWorkers == 1), the root merges them with obliv.MergeSorted and
// applies global dedupe + Theorem-3 padding for the aggregate rate R.
func (t *Tree) MakeBatches(epoch uint64, feeds []*store.Requests) (*Batches, []error, error) {
	t0 := time.Now()
	L := len(t.leaves)
	if len(feeds) != L {
		return nil, nil, fmt.Errorf("loadbalancer: tree got %d feeds, has %d leaves", len(feeds), L)
	}
	s := t.cfg.NumSubORAMs
	r := 0
	for f, q := range feeds {
		if q.BlockSize != t.cfg.BlockSize {
			return nil, nil, fmt.Errorf("loadbalancer: feed %d block size %d != %d", f, q.BlockSize, t.cfg.BlockSize)
		}
		t.bases[f] = uint64(r) // public prefix-sum sequence offsets
		r += q.Len()
	}
	// Theorem-3 padding: each leaf pads to its own rate's bound α_f (its run
	// is a valid batch set for its feed), and the root contributes an α·S
	// all-dummy run sized for the aggregate rate — the padding reservoir
	// that lets global dedupe always retain exactly α rows per subORAM.
	// The aggregate bound is the monolithic bound: aggregation must not
	// weaken the overflow guarantee.
	alpha := batch.Size(r, s, t.cfg.Lambda)
	if alpha == 0 {
		alpha = 1
	}
	runLen := alpha * s
	total := 0
	for f, q := range feeds {
		af := batch.Size(q.Len(), s, t.cfg.Lambda)
		if af == 0 {
			af = 1
		}
		t.alphas[f] = af
		t.runLens[f] = af * s
		total += af * s
	}
	t.runLens[L] = runLen
	total += runLen

	pool := t.root.pool()
	work := pool.GetRequests(total, t.cfg.BlockSize)
	work.Rec = t.cfg.Rec

	// Leaf stage: each leaf writes its α_f·S run into its public segment of
	// the merge scratch. SortWorkers == 1 keeps the build serial (the
	// zero-alloc guard path, matching the monolithic convention); otherwise
	// leaves run concurrently.
	if t.cfg.SortWorkers == 1 {
		lo := 0
		for f := 0; f < L; f++ {
			t.runLeaf(f, epoch, feeds[f], work, lo)
			lo += t.runLens[f]
		}
	} else {
		var wg sync.WaitGroup
		lo := 0
		for f := 0; f < L; f++ {
			f, off := f, lo
			lo += t.runLens[f]
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.runLeaf(f, epoch, feeds[f], work, off)
			}()
		}
		wg.Wait()
	}
	dropped := 0
	anyErr, anyDrop := false, false
	for f := 0; f < L; f++ {
		dropped += len(t.leafKeys[f])
		anyErr = anyErr || t.leafErrs[f] != nil
		anyDrop = anyDrop || t.leafKeys[f] != nil
	}
	// Rare paths allocate; the steady state (no leaf failures, no overflow)
	// leaves feedErrs and droppedByFeed nil.
	var feedErrs []error
	var droppedByFeed [][]uint64
	if anyErr {
		feedErrs = make([]error, L)
		copy(feedErrs, t.leafErrs)
	}
	if anyDrop {
		droppedByFeed = make([][]uint64, L)
		copy(droppedByFeed, t.leafKeys)
	}
	for f := 0; f < L; f++ {
		t.leafErrs[f], t.leafKeys[f] = nil, nil
	}

	// Root stage: write the padding-reservoir dummy run, merge the L+1
	// already-sorted runs (O(n log n) — the whole point of the tree), then
	// the same global dedupe + keep-first-α scan as the monolithic balancer.
	// Duplicate keys across leaves — real and dummy alike (each leaf's dummy
	// keys are a prefix of the root's) — collapse here; every subORAM group
	// retains exactly α rows because the dummy run alone offers α distinct
	// keys per subORAM.
	tr0 := t.cfg.Telemetry.Now()
	rootRun := &t.views[L]
	work.ViewInto(rootRun, total-runLen, total)
	fillDummyRun(rootRun, alpha, s)
	obliv.MergeSorted(store.BySubKeyWriteSeq{Requests: work}, t.runLens)
	keep := pool.GetBits(work.Len())
	drop := pool.GetBits(work.Len())
	rootDropped, rootKeys := dedupeKeep(work, alpha, keep, drop)
	obliv.Compact(work, keep)
	pool.PutBits(keep)
	pool.PutBits(drop)
	work.Resize(runLen)
	t.telRootMerge.Observe(time.Duration(t.cfg.Telemetry.Now() - tr0))
	t.telMerges.Inc()
	t.stRoot.Record(epoch, t.cfg.Plane, runLen, tr0, t.cfg.Telemetry.Now())
	dropped += rootDropped

	b := batchesPool.Get().(*Batches)
	*b = Batches{
		All: work, PerSub: alpha,
		Dropped: dropped, DroppedKeys: rootKeys, DroppedByFeed: droppedByFeed,
		pool: pool,
	}

	t.statsMu.Lock()
	t.last.MakeBatch = time.Since(t0)
	t.statsMu.Unlock()
	t.telBatches.Inc()
	t.telDropped.Add(uint64(dropped))
	return b, feedErrs, nil
}

// MatchResponses implements Balancer: the α·S response set is fanned back
// down the tree — each leaf level matches its own feed's original requests
// against the full (public-shape) response set, in parallel across feeds at
// the call sites.
func (t *Tree) MatchResponses(epoch uint64, responses *store.Requests, feed int, reqs *store.Requests) (*store.Requests, error) {
	tl0 := t.cfg.Telemetry.Now()
	m, err := t.root.MatchResponses(responses, reqs)
	t.stLeafMatch.Record(epoch, t.feedPart(feed), reqs.Len(), tl0, t.cfg.Telemetry.Now())
	return m, err
}

// SubORAMFor returns the partition storing id.
func (t *Tree) SubORAMFor(id uint64) int { return t.root.SubORAMFor(id) }

// Partition splits an object set for initialization.
func (t *Tree) Partition(ids []uint64, data []byte) ([][]uint64, [][]byte, error) {
	return t.root.Partition(ids, data)
}

// BatchSize is f(R,S) for the aggregate rate — identical to the monolithic
// bound by construction.
func (t *Tree) BatchSize(r int) int { return t.root.BatchSize(r) }

// LastStats returns the last epoch's timing: the tree-wide batch build
// (leaf sorts + root merge) and the root's response match.
func (t *Tree) LastStats() Stats {
	t.statsMu.Lock()
	mb := t.last.MakeBatch
	t.statsMu.Unlock()
	return Stats{MakeBatch: mb, Match: t.root.LastStats().Match}
}
