// Package loadbalancer implements Snoopy's oblivious load balancer (paper
// §4): it turns the requests received during an epoch into one equal-sized,
// deduplicated, dummy-padded batch per subORAM (Fig. 5, Fig. 25), and
// obliviously matches the subORAM responses back to the original client
// requests (Fig. 6).
//
// Load balancers are stateless between epochs and share only the long-term
// keyed hash key that assigns objects to subORAMs, so any number of them
// can run independently and in parallel (§4.3).
package loadbalancer

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/telemetry"
	"snoopy/internal/trace"
)

// Config configures a load balancer.
type Config struct {
	// BlockSize is the object value size in bytes.
	BlockSize int
	// NumSubORAMs is S, the number of data partitions.
	NumSubORAMs int
	// Lambda is the security parameter for batch sizing (Theorem 3).
	Lambda int
	// SortWorkers bounds oblivious-sort parallelism; 0 means adaptive with
	// GOMAXPROCS (paper Fig. 13a).
	SortWorkers int
	// Rec, when non-nil, records epoch access traces. Test-only; requires
	// SortWorkers == 1.
	Rec *trace.Recorder
	// Pool supplies per-epoch working memory (batch scratch, matched
	// responses). Nil means arena.Default.
	Pool *arena.Pool
	// Telemetry, when non-nil, records batch-assembly and response-matching
	// durations plus per-epoch counters. Every recording site fires once
	// per call with public payloads only (batch sizes, the already-public
	// Theorem-3 overflow count); nil disables recording at zero cost.
	Telemetry *telemetry.Registry
}

// Stats records where an epoch's load-balancer time went (the "Load
// balancer (make batch)" and "(match responses)" components of Fig. 12).
type Stats struct {
	MakeBatch time.Duration
	Match     time.Duration
}

// LoadBalancer assembles and matches oblivious batches. Batch building
// and response matching of different epochs may run concurrently
// (epochs in flight); the methods themselves are stateless apart from the
// mutex-guarded stats.
type LoadBalancer struct {
	cfg    Config
	hasher *crypt.Hasher
	// secret and calls key the batches of MakeBatches, which runs outside
	// any engine epoch: call c's partition s is ordered under
	// TableKey(secret, 0, s, c).
	secret crypt.Key
	calls  atomic.Uint64

	statsMu sync.Mutex
	last    Stats

	// Telemetry instruments, resolved once at construction so recording on
	// the epoch hot path does no registry lookups. All nil (and therefore
	// no-ops) when Config.Telemetry is nil.
	telMakeBatch *telemetry.Histogram
	telMatch     *telemetry.Histogram
	telBatches   *telemetry.Counter
	telDropped   *telemetry.Counter
}

// New creates a load balancer. key is the long-term object→subORAM hash key
// shared by every load balancer in the deployment (paper §4.1: the keyed
// hash "remains the same across epochs").
func New(cfg Config, key crypt.Key) *LoadBalancer {
	if cfg.BlockSize <= 0 || cfg.NumSubORAMs <= 0 {
		panic("loadbalancer: BlockSize and NumSubORAMs must be positive")
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 128
	}
	return &LoadBalancer{
		cfg:          cfg,
		hasher:       crypt.NewHasher(key),
		secret:       crypt.MustNewKey(),
		telMakeBatch: cfg.Telemetry.Histogram("lb_make_batch", nil),
		telMatch:     cfg.Telemetry.Histogram("lb_match", nil),
		telBatches:   cfg.Telemetry.Counter("lb_batches_total"),
		telDropped:   cfg.Telemetry.Counter("lb_overflow_dropped_total"),
	}
}

// pool returns the configured arena, defaulting to the process-wide one.
func (lb *LoadBalancer) pool() *arena.Pool {
	if lb.cfg.Pool != nil {
		return lb.cfg.Pool
	}
	return arena.Default
}

// SubORAMFor returns the partition that stores id.
func (lb *LoadBalancer) SubORAMFor(id uint64) int {
	return int(lb.hasher.Bucket(id, lb.cfg.NumSubORAMs))
}

// Partition splits an object set across subORAMs for initialization (paper
// Fig. 23). Initialization happens once, before any adversarially chosen
// request, and the partition sizes are a function of the secret hash key
// alone, so a plain (non-oblivious) split is simulatable; deployments that
// want Fig. 23's fully oblivious initialization can sort with
// store.BySubKey first.
func (lb *LoadBalancer) Partition(ids []uint64, data []byte) (partIDs [][]uint64, partData [][]byte, err error) {
	if len(data) != len(ids)*lb.cfg.BlockSize {
		return nil, nil, fmt.Errorf("loadbalancer: data length %d != %d objects × %d",
			len(data), len(ids), lb.cfg.BlockSize)
	}
	s := lb.cfg.NumSubORAMs
	partIDs = make([][]uint64, s)
	partData = make([][]byte, s)
	for i, id := range ids {
		p := lb.SubORAMFor(id)
		partIDs[p] = append(partIDs[p], id)
		partData[p] = append(partData[p], data[i*lb.cfg.BlockSize:(i+1)*lb.cfg.BlockSize]...)
	}
	return partIDs, partData, nil
}

// Batches is the output of MakeBatches: S equal batches laid out
// subORAM-major in one record set. Its storage is drawn from the load
// balancer's arena; call Release when the epoch is done with it (optional —
// an unreleased Batches is simply garbage collected).
type Batches struct {
	All *store.Requests // NumSubORAMs × PerSub rows
	// PerSub is the per-subORAM batch size α = f(R,S).
	PerSub int
	// Dropped counts distinct real requests that exceeded a batch — the
	// negligible-probability overflow event of Theorem 3.
	Dropped int
	// DroppedKeys holds the dropped requests' keys (nil when Dropped == 0)
	// so the system can fail exactly those requests with an explicit error
	// instead of silently answering not-found.
	DroppedKeys []uint64
	// Match is the epoch's match data, for LoadBalancer.Match. A caller
	// that takes it sets the field to nil; else Release releases it.
	Match *Match

	pool *arena.Pool
}

// batchesPool recycles the Batches structs themselves.
var batchesPool = sync.Pool{New: func() any { return new(Batches) }}

// For returns the batch destined for subORAM s (a view, not a copy).
func (b *Batches) For(s int) *store.Requests {
	return b.All.View(s*b.PerSub, (s+1)*b.PerSub)
}

// ForInto is For writing the window into caller-owned scratch — no
// allocation, for the epoch engine's per-partition dispatch loop. The
// window is invalid once the Batches are released.
func (b *Batches) ForInto(dst *store.Requests, s int) {
	b.All.ViewInto(dst, s*b.PerSub, (s+1)*b.PerSub)
}

// Release returns the batch storage (and the struct) to the arena. The
// Batches and every view obtained from For are invalid afterwards.
func (b *Batches) Release() {
	if b == nil || b.All == nil {
		return
	}
	b.Match.Release()
	b.pool.PutRequests(b.All)
	*b = Batches{}
	batchesPool.Put(b)
}

// dedupeKeep marks, branch-free, the first α distinct keys of each subORAM
// group of the (sub, key, write-first, seq-desc)-sorted work into keep, and
// the distinct real keys that did not fit — Theorem-3 overflow victims —
// into drop. Returns the victim count and keys.
func dedupeKeep(work *store.Requests, alpha int, keep, drop []uint8) (int, []uint64) {
	dropped := 0
	var distinct uint64
	prevSub := ^uint64(0)
	prevKey := ^uint64(0)
	for i := 0; i < work.Len(); i++ {
		work.Touch(i)
		sub := uint64(work.Sub[i])
		key := work.Key[i]
		newSub := obliv.NeqU64(sub, prevSub)
		newKey := obliv.Or(newSub, obliv.NeqU64(key, prevKey))
		distinct = obliv.SelectU64(newSub, distinct, 0)
		k := newKey & obliv.LtU64(distinct, uint64(alpha))
		keep[i] = k
		// A distinct real key that did not fit is a dropped request.
		isReal := obliv.Not(store.DummyMark(key))
		drop[i] = newKey & obliv.Not(k) & isReal
		dropped += int(drop[i])
		distinct += uint64(newKey)
		prevSub, prevKey = sub, key
	}
	var droppedKeys []uint64
	if dropped > 0 {
		// Theorem-3 overflow event: collect the victims' keys (before
		// Compact permutes work) so the system can fail exactly those
		// requests. The count is public (EpochStats.Dropped), and this
		// branchy pass runs only in the negligible-probability event, where
		// the failure is client-visible anyway.
		droppedKeys = make([]uint64, 0, dropped)
		for i := 0; i < work.Len(); i++ {
			if drop[i] == 1 {
				droppedKeys = append(droppedKeys, work.Key[i])
			}
		}
	}
	return dropped, droppedKeys
}

// TableKey is K(l, s, E), the SipHash key that orders load balancer l's
// batch for partition s in epoch E: a PRF of the three under secret. No
// secret may key two different batches under one (l, s, E) (DESIGN.md §17).
func TableKey(secret crypt.Key, l, s int, epoch uint64) crypt.SipKey {
	msg := [len(tableKeyLabel) + crypt.KeySize + 24]byte{}
	n := copy(msg[:], tableKeyLabel) + copy(msg[len(tableKeyLabel):], secret[:])
	binary.LittleEndian.PutUint64(msg[n:], uint64(l))
	binary.LittleEndian.PutUint64(msg[n+8:], uint64(s))
	binary.LittleEndian.PutUint64(msg[n+16:], epoch)
	d := sha256.Sum256(msg[:])
	return crypt.SipKey{binary.LittleEndian.Uint64(d[0:8]), binary.LittleEndian.Uint64(d[8:16])}
}

const tableKeyLabel = "snoopy-lb/table-key/v1|"

// Match is an epoch's match data: the request metadata (Op, Key, Seq,
// Client) in table order in the first rows of the record set the matching
// merge runs in, each request's rank, and the key each partition's batch
// was stamped with. The orderings live here so that handing one to a
// network does not allocate.
type Match struct {
	x         *store.Requests
	rank      []uint64
	keys      []crypt.SipKey
	alpha     int
	pool      *arena.Pool
	byRank    store.ByRank
	byRankTag store.ByRankTag
}

var matchPool = sync.Pool{New: func() any { return new(Match) }}

// newMatch draws match data for r requests against s batches of alpha rows:
// r zeroed request rows, with room for the response rows Match copies in
// behind them.
func newMatch(pool *arena.Pool, r, s, alpha, blockSize int) *Match {
	m := matchPool.Get().(*Match)
	m.x = pool.GetRequestsRoom(r, r+alpha*s, blockSize)
	if cap(m.rank) < r+alpha*s || cap(m.keys) < s {
		m.rank, m.keys = make([]uint64, r+alpha*s), make([]crypt.SipKey, s)
	}
	m.rank, m.keys, m.alpha, m.pool = m.rank[:r], m.keys[:s], alpha, pool
	return m
}

// Key returns the key partition s's batch was stamped with.
func (m *Match) Key(s int) crypt.SipKey { return m.keys[s] }

// Release returns the match data's storage. A nil Match is a no-op.
func (m *Match) Release() {
	if m == nil {
		return
	}
	if m.x != nil {
		m.pool.PutRequests(m.x)
	}
	m.x, m.pool, m.byRank, m.byRankTag = nil, nil, store.ByRank{}, store.ByRankTag{}
	matchPool.Put(m)
}

// rank gives rows [0, len(m.rank)) of x their partition in Sub and their
// rank under that partition's key. The partition is secret, so its key is
// picked by a branch-free scan over all S.
func (lb *LoadBalancer) rank(m *Match, x *store.Requests) {
	for i := range m.rank {
		sub := lb.SubORAMFor(x.Key[i])
		var k crypt.SipKey
		for p := range m.keys {
			c := obliv.EqU64(uint64(sub), uint64(p))
			obliv.CondSetU64(c, &k[0], m.keys[p][0])
			obliv.CondSetU64(c, &k[1], m.keys[p][1])
		}
		x.Sub[i] = uint32(sub)
		m.rank[i] = ohash.Rank(sub, ohash.Hash(k, x.Key[i]))
	}
}

// takeMeta copies src's request metadata into m's request rows.
func (m *Match) takeMeta(src *store.Requests) {
	copy(m.x.Op, src.Op)
	copy(m.x.Key, src.Key)
	copy(m.x.Sub, src.Sub)
	copy(m.x.Seq, src.Seq)
	copy(m.x.Client, src.Client)
	for i := range m.x.Tag {
		m.x.Tag[i] = 1
	}
}

// MakeBatches obliviously builds the per-subORAM batches for one epoch from
// the requests received (paper Fig. 5 / Fig. 25 lines 1–14), outside any
// engine epoch: each call's batches are keyed by the load balancer's own
// secret and a call counter. The caller must have set Seq to the arrival
// order (for last-write-wins) and Client to its routing cookie. reqs is not
// modified; duplicates are allowed.
func (lb *LoadBalancer) MakeBatches(reqs *store.Requests) (*Batches, error) {
	return lb.MakeEpochBatches(reqs, lb.secret, 0, lb.calls.Add(1))
}

// MakeEpochBatches is MakeBatches for plane l of an engine epoch: partition
// s's batch is ordered under TableKey(secret, l, s, epoch).
//
// The requests are copied into pooled scratch, ranked by (subORAM, H of the
// key under its key), obliviously sorted once by (rank, key, write-first,
// seq-desc), deduplicated to the first α distinct keys per subORAM, and
// scattered to sub·α + rank of the α·S-row batch set, whose remaining slots
// become each subORAM's dummies (numbered 0, 1, … behind its real rows).
// Every row of partition s's batch carries its key (store.StampKey), so
// the partition builds its table from that order without sorting. The
// sorted metadata stays behind as the epoch's match data (Batches.Match).
func (lb *LoadBalancer) MakeEpochBatches(reqs *store.Requests, secret crypt.Key, l int, epoch uint64) (*Batches, error) {
	t0 := time.Now()
	tt0 := lb.cfg.Telemetry.Now()

	if reqs.BlockSize != lb.cfg.BlockSize {
		return nil, fmt.Errorf("loadbalancer: block size %d != %d", reqs.BlockSize, lb.cfg.BlockSize)
	}
	n := reqs.Len()
	s := lb.cfg.NumSubORAMs
	alpha := batch.Size(n, s, lb.cfg.Lambda)
	if alpha == 0 {
		alpha = 1 // an idle epoch still sends one dummy per subORAM
	}
	pool := lb.pool()
	m := newMatch(pool, n, s, alpha, lb.cfg.BlockSize)
	for p := range m.keys {
		m.keys[p] = TableKey(secret, l, p, epoch)
	}

	// ➊ Rank each request; ➋ sort into table order: duplicates become
	// adjacent with the last-write-wins representative first. The scratch
	// is zeroed through the batch set's length; only the n real rows take
	// part in the sort. Their sorted metadata is the match data.
	work := pool.GetRequests(max(n, alpha*s), lb.cfg.BlockSize)
	work.Rec = lb.cfg.Rec
	work.Resize(n)
	work.CopyPrefix(reqs)
	lb.rank(m, work)
	m.byRank = store.ByRank{Requests: work, Rank: m.rank}
	obliv.SortAdaptive(&m.byRank, lb.cfg.SortWorkers)
	m.takeMeta(work)

	// ➌ Keep the first α distinct keys per subORAM, branch-free; ➍ route
	// them to their batch slots and number the dummies that fill the rest;
	// ➎ stamp every batch with its key.
	keep := pool.GetBits(n)
	drop := pool.GetBits(n)
	dropped, droppedKeys := dedupeKeep(work, alpha, keep, drop)
	work.ScatterRuns(keep, s, alpha, store.DummyKeyBit, 1<<32)
	pool.PutBits(keep)
	pool.PutBits(drop)
	for i := range work.Key {
		work.Seq[i], work.Client[i] = m.keys[i/alpha][0], m.keys[i/alpha][1]
	}

	b := batchesPool.Get().(*Batches)
	*b = Batches{All: work, PerSub: alpha, Dropped: dropped, DroppedKeys: droppedKeys, Match: m, pool: pool}

	lb.statsMu.Lock()
	lb.last.MakeBatch = time.Since(t0)
	lb.statsMu.Unlock()
	// Fires once per call, unconditionally: the duration is adversary-
	// visible timing, and the overflow count is already public
	// (EpochStats.Dropped; a negligible-probability, client-visible event).
	lb.telMakeBatch.Observe(time.Duration(lb.cfg.Telemetry.Now() - tt0))
	lb.telBatches.Inc()
	lb.telDropped.Add(uint64(dropped))
	return b, nil
}

// ErrKeyEcho is returned for responses that do not echo the key their
// batch was stamped with: a partition that ordered them some other way.
var ErrKeyEcho = errors.New("loadbalancer: response does not echo its batch's table key")

// Match obliviously propagates subORAM responses to the requests of m's
// epoch (paper Fig. 6 / Fig. 25 lines 18–26) and consumes m. responses holds
// every subORAM's response batch, partition s in rows [s·α, (s+1)·α), in
// the order its batch was sent — residents in table order, then vacant rows
// — echoing its key; a response that echoes another key fails the match
// closed. The result has one row per request — same Key, Op, Seq and Client
// cookie, with Data (and the Aux found bit) carrying the response, zero for
// a key no response row answers — in unspecified order. Its storage is drawn
// from the arena; the caller owns it and may release it.
//
// Both runs are in one order already, so one merge, with no sort, makes
// every response adjacent to the requests it answers.
func (lb *LoadBalancer) Match(m *Match, responses *store.Requests) (*store.Requests, error) {
	defer m.Release()
	t0, tt0 := time.Now(), lb.cfg.Telemetry.Now()
	s, alpha := len(m.keys), m.alpha
	if responses.BlockSize != lb.cfg.BlockSize || responses.Len() != alpha*s {
		return nil, fmt.Errorf("loadbalancer: %d response rows are not %d subORAMs' batches of %d", responses.Len(), s, alpha)
	}
	var bad uint64
	for i := range responses.Key {
		k := m.keys[i/alpha]
		bad |= (responses.Seq[i] ^ k[0]) | (responses.Client[i] ^ k[1])
	}
	if bad != 0 {
		return nil, ErrKeyEcho
	}

	// ➊ Lay the responses out behind the requests under the same rank —
	// vacant and blank rows last in their partition — tagged 0 so each
	// precedes the requests it answers, and merge the two runs.
	x, r, rows := m.x, m.x.Len(), responses.Len()
	rank := m.rank[:r+rows]
	x.Rec = lb.cfg.Rec
	x.Resize(r + rows)
	x.CopyRowsPlain(r, responses)
	for i := r; i < r+rows; i++ {
		p := (i - r) / alpha
		rank[i] = obliv.SelectU64(store.DummyMark(x.Key[i]), ohash.Rank(p, ohash.Hash(m.keys[p], x.Key[i])), ohash.DummyRank(p))
		x.Tag[i] = 0
	}
	m.byRankTag = store.ByRankTag{Requests: x, Rank: rank}
	obliv.MergeSorted(&m.byRankTag, []int{r, rows})

	// ➋ Propagate response data to the request rows that follow it.
	pool := lb.pool()
	prevKey := ^uint64(0)
	var prevFound uint8
	prevData := pool.GetBlock(lb.cfg.BlockSize)
	for i := 0; i < x.Len(); i++ {
		x.Touch(i)
		isResp := obliv.Not(x.Tag[i])
		obliv.CondSetU64(isResp, &prevKey, x.Key[i])
		obliv.CondSetU8(isResp, &prevFound, x.Aux[i])
		obliv.CondCopyBytes(isResp, prevData, x.Block(i))
		match := x.Tag[i] & obliv.EqU64(x.Key[i], prevKey)
		obliv.CondCopyBytes(match, x.Block(i), prevData)
		obliv.CondSetU8(match, &x.Aux[i], prevFound)
	}
	pool.PutBlock(prevData)

	// ➌ Compact out the response rows, leaving the answered requests.
	marks := pool.GetBits(x.Len())
	copy(marks, x.Tag)
	obliv.Compact(x, marks)
	pool.PutBits(marks)
	x.Resize(r)
	m.x = nil // the caller's now

	lb.statsMu.Lock()
	lb.last.Match = time.Since(t0)
	lb.statsMu.Unlock()
	lb.telMatch.Observe(time.Duration(lb.cfg.Telemetry.Now() - tt0))
	return x, nil
}

// MatchResponses is Match for responses whose requests were batched
// elsewhere: reqs is the epoch's original request list (duplicates
// included), or any subset of it, and each partition's key is read from
// its responses' echo. The requests' metadata alone — their value blocks
// are dead here — is sorted narrowly into table order under those keys.
func (lb *LoadBalancer) MatchResponses(responses, reqs *store.Requests) (*store.Requests, error) {
	s, rows := lb.cfg.NumSubORAMs, responses.Len()
	if reqs.BlockSize != lb.cfg.BlockSize || rows == 0 || rows%s != 0 {
		return nil, fmt.Errorf("loadbalancer: %d response rows are not one batch per each of %d subORAMs", rows, s)
	}
	m := newMatch(lb.pool(), reqs.Len(), s, rows/s, lb.cfg.BlockSize)
	for p := range m.keys {
		m.keys[p] = responses.KeyStamp(p * m.alpha)
	}
	m.x.Rec = lb.cfg.Rec
	m.takeMeta(reqs)
	lb.rank(m, m.x)
	m.byRank = store.ByRank{Requests: m.x, Rank: m.rank, Narrow: true}
	obliv.SortAdaptive(&m.byRank, lb.cfg.SortWorkers)
	return lb.Match(m, responses)
}

// MakeBatchesCost returns the number of oblivious row operations
// (compare-exchanges and conditional swaps) MakeBatches performs on r
// requests for s subORAMs at batch size alpha: sort and compact the r real
// rows, distribute into α·s slots.
// A pure function of public parameters, for the planner's cost model.
func MakeBatchesCost(r, s, alpha int) int {
	return obliv.SortCost(r) + obliv.CompactCost(r) + obliv.DistributeCost(alpha*s)
}

// MatchResponsesCost is MakeBatchesCost's counterpart for Match: merge the r
// requests with the α·s responses, compact the r + α·s rows. Nothing is
// sorted.
func MatchResponsesCost(r, s, alpha int) int {
	return obliv.MergeSortedCost([]int{r, alpha * s}) + obliv.CompactCost(r+alpha*s)
}

// LastStats returns the timing breakdown of the most recent epoch.
func (lb *LoadBalancer) LastStats() Stats {
	lb.statsMu.Lock()
	defer lb.statsMu.Unlock()
	return lb.last
}

// BatchSize exposes f(R,S) for this deployment's λ — used by the planner
// and benchmarks.
func (lb *LoadBalancer) BatchSize(r int) int {
	return batch.Size(r, lb.cfg.NumSubORAMs, lb.cfg.Lambda)
}

// PartitionOblivious is the fully oblivious initialization of paper
// Fig. 23: objects are tagged with their keyed-hash subORAM assignment,
// obliviously sorted by tag, and split at the tag boundaries. Unlike
// Partition, the memory access pattern of the grouping itself is a fixed
// function of the object count — use it when even initialization runs
// inside an enclave under observation. O(n log² n); prefer Partition for
// bulk loads outside the threat window.
func (lb *LoadBalancer) PartitionOblivious(ids []uint64, data []byte) (partIDs [][]uint64, partData [][]byte, err error) {
	if len(data) != len(ids)*lb.cfg.BlockSize {
		return nil, nil, fmt.Errorf("loadbalancer: data length %d != %d objects × %d",
			len(data), len(ids), lb.cfg.BlockSize)
	}
	s := lb.cfg.NumSubORAMs
	work := store.NewRequests(len(ids), lb.cfg.BlockSize)
	work.Rec = lb.cfg.Rec
	for i, id := range ids {
		work.SetRow(i, store.OpRead, id, uint32(lb.SubORAMFor(id)), 0, 0,
			data[i*lb.cfg.BlockSize:(i+1)*lb.cfg.BlockSize])
	}
	obliv.SortAdaptive(store.BySubKey{Requests: work}, lb.cfg.SortWorkers)

	// Boundary scan (Fig. 23 lines 10-18): partition sizes are a function
	// of the secret hash key only, hence simulatable public outputs.
	partIDs = make([][]uint64, s)
	partData = make([][]byte, s)
	for i := 0; i < work.Len(); i++ {
		p := int(work.Sub[i])
		partIDs[p] = append(partIDs[p], work.Key[i])
		partData[p] = append(partData[p], work.Block(i)...)
	}
	return partIDs, partData, nil
}
