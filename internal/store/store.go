// Package store defines the fixed-layout request/response records that flow
// between Snoopy's load balancers and subORAMs, implemented as a columnar
// record set supporting the oblivious operations (conditional row swap/copy,
// sort orderings) that the batching algorithms of §4–§5 are built from.
//
// Every record carries the same fixed-size value block, so record size — and
// therefore the memory traffic of every oblivious pass — is a public
// constant.
package store

import (
	"fmt"
	"math/bits"

	"snoopy/internal/obliv"
	"snoopy/internal/trace"
)

// Operation codes. OpRead must be the zero value: zeroed records are dummy
// reads.
const (
	OpRead  uint8 = 0
	OpWrite uint8 = 1
)

// DummyKeyBit marks dummy identifiers. Real object identifiers must stay
// below it; the load balancer and hash table mint dummy keys above it, which
// guarantees (a) dummies never match a stored object and (b) sorting by key
// pushes dummies after all real requests.
const DummyKeyBit = uint64(1) << 63

// IsDummyKey reports (branch-free callers should use the mask directly)
// whether key is in the dummy space.
func IsDummyKey(key uint64) bool { return key&DummyKeyBit != 0 }

// DummyMark returns 1 if key is a dummy key, else 0, branch-free.
func DummyMark(key uint64) uint8 { return uint8(key >> 63) }

// CheckIDs reports why ids cannot be a partition's identifier set, if they
// cannot: an identifier in the dummy space, or one named twice.
func CheckIDs(ids []uint64) error {
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if IsDummyKey(id) {
			return fmt.Errorf("object id %#x in dummy key space", id)
		}
		if seen[id] {
			return fmt.Errorf("duplicate object id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// DeliveryTag names one delivery — an epoch's batches for one partition — as
// epoch Epoch of the root's delivery stream Stream. A partition behind a
// delivery window (transport.Window) answers a redelivered tag from it
// instead of applying the batches twice; one behind none ignores it.
type DeliveryTag struct{ Stream, Epoch uint64 }

// Requests is a columnar set of n request/response records with a fixed
// value block size. Columns:
//
//	Op     — OpRead or OpWrite
//	Key    — object identifier (or dummy key)
//	Sub    — scratch routing tag: subORAM index at the load balancer,
//	         hash-table bucket at the subORAM
//	Tag    — scratch 0/1 mark bit for compaction passes
//	Aux    — second scratch 0/1 mark bit (e.g. the subORAM found bit)
//	Seq    — arrival sequence number (last-write-wins tiebreak); in a
//	         batch and its responses, the first word of the batch's table
//	         key (see StampKey)
//	Client — opaque routing cookie, carried alongside but never inspected
//	         by oblivious passes; in a batch and its responses, the second
//	         word of the table key
//	Data   — n fixed-size value blocks, flattened
type Requests struct {
	BlockSize int
	// Rec, when non-nil, records the access trace of every oblivious
	// operation for the obliviousness tests (see internal/trace). Tracing
	// is a single-threaded test facility.
	Rec    *trace.Recorder
	Op     []uint8
	Key    []uint64
	Sub    []uint32
	Tag    []uint8
	Aux    []uint8
	Seq    []uint64
	Client []uint64
	Data   []byte
}

// NewRequests allocates n zeroed records (dummy reads of key 0) with the
// given value block size.
func NewRequests(n, blockSize int) *Requests {
	if n < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("store: invalid Requests dims n=%d block=%d", n, blockSize))
	}
	return &Requests{
		BlockSize: blockSize,
		Op:        make([]uint8, n),
		Key:       make([]uint64, n),
		Sub:       make([]uint32, n),
		Tag:       make([]uint8, n),
		Aux:       make([]uint8, n),
		Seq:       make([]uint64, n),
		Client:    make([]uint64, n),
		Data:      make([]byte, n*blockSize),
	}
}

// Len returns the number of records.
func (r *Requests) Len() int { return len(r.Key) }

// Cap returns the record capacity of the backing arrays: the largest n that
// Resize accepts. For a set built by NewRequests it equals Len.
func (r *Requests) Cap() int {
	c := cap(r.Key)
	if k := cap(r.Op); k < c {
		c = k
	}
	if k := cap(r.Sub); k < c {
		c = k
	}
	if k := cap(r.Tag); k < c {
		c = k
	}
	if k := cap(r.Aux); k < c {
		c = k
	}
	if k := cap(r.Seq); k < c {
		c = k
	}
	if k := cap(r.Client); k < c {
		c = k
	}
	if k := cap(r.Data) / r.BlockSize; k < c {
		c = k
	}
	return c
}

// Resize reslices r to n records without copying or zeroing; records beyond
// the previous length expose stale contents (callers that need zeroed
// records follow with Reset). n must not exceed Cap. Views taken before a
// Resize keep aliasing the backing arrays.
func (r *Requests) Resize(n int) {
	if n < 0 || n > r.Cap() {
		panic(fmt.Sprintf("store: Resize(%d) outside capacity %d", n, r.Cap()))
	}
	r.Op = r.Op[:n]
	r.Key = r.Key[:n]
	r.Sub = r.Sub[:n]
	r.Tag = r.Tag[:n]
	r.Aux = r.Aux[:n]
	r.Seq = r.Seq[:n]
	r.Client = r.Client[:n]
	r.Data = r.Data[:n*r.BlockSize]
}

// Reset zeroes every record in place (length unchanged): all records become
// dummy reads of key 0, the same state NewRequests establishes.
func (r *Requests) Reset() {
	clear(r.Op)
	clear(r.Key)
	clear(r.Sub)
	clear(r.Tag)
	clear(r.Aux)
	clear(r.Seq)
	clear(r.Client)
	clear(r.Data)
}

// CopyRowsPlain plainly copies all records of src into r starting at record
// off. r must have room (off + src.Len() <= r.Len()) and share src's block
// size. It is the bulk, allocation-free counterpart of Concat.
func (r *Requests) CopyRowsPlain(off int, src *Requests) {
	if r.BlockSize != src.BlockSize {
		panic("store: CopyRowsPlain block size mismatch")
	}
	if off < 0 || off+src.Len() > r.Len() {
		panic(fmt.Sprintf("store: CopyRowsPlain [%d,%d) outside %d records",
			off, off+src.Len(), r.Len()))
	}
	copy(r.Op[off:], src.Op)
	copy(r.Key[off:], src.Key)
	copy(r.Sub[off:], src.Sub)
	copy(r.Tag[off:], src.Tag)
	copy(r.Aux[off:], src.Aux)
	copy(r.Seq[off:], src.Seq)
	copy(r.Client[off:], src.Client)
	copy(r.Data[off*r.BlockSize:], src.Data)
}

// CopyPrefix plainly copies the first r.Len() records of src into r (src
// must be at least as long as r and share its block size): the copy step
// that replaces View(0, n).Clone() when r is reused storage.
func (r *Requests) CopyPrefix(src *Requests) {
	if r.BlockSize != src.BlockSize {
		panic("store: CopyPrefix block size mismatch")
	}
	if src.Len() < r.Len() {
		panic(fmt.Sprintf("store: CopyPrefix source %d shorter than %d", src.Len(), r.Len()))
	}
	n := r.Len()
	copy(r.Op, src.Op[:n])
	copy(r.Key, src.Key[:n])
	copy(r.Sub, src.Sub[:n])
	copy(r.Tag, src.Tag[:n])
	copy(r.Aux, src.Aux[:n])
	copy(r.Seq, src.Seq[:n])
	copy(r.Client, src.Client[:n])
	copy(r.Data, src.Data[:n*r.BlockSize])
}

// Block returns the value block of record i (aliasing the backing array).
func (r *Requests) Block(i int) []byte {
	return r.Data[i*r.BlockSize : (i+1)*r.BlockSize]
}

// SwapRun implements obliv.Swapper: records i+t and j+t are exchanged iff
// c[t] == 1, for every t < len(c).
func (r *Requests) SwapRun(c []uint8, i, j int) { r.swapRun(c, i, j, true) }

// shortRun is the run length below which swapRun exchanges metadata row by
// row: a streaming pass costs each column a call and its setup, which runs
// of one to a few pairs — the bottom layers of every network — do not pay
// back.
const shortRun = 8

// swapRun exchanges a run of records: Op, Key, Sub, Seq and Client, and if
// wide also Tag, Aux and the value blocks. A long run moves each column in
// one streaming pass under the run's masks; the value blocks always move by
// one kernel call per run. Which path runs depends on len(c) alone.
func (r *Requests) swapRun(c []uint8, i, j int, wide bool) {
	if r.Rec != nil {
		for t := range c {
			r.Rec.Record(trace.KindSwap, i+t, j+t)
		}
	}
	if len(c) < shortRun {
		for t, ct := range c {
			x, y := i+t, j+t
			obliv.CondSwapU8(ct, &r.Op[x], &r.Op[y])
			obliv.CondSwapU64(ct, &r.Key[x], &r.Key[y])
			obliv.CondSwapU32(ct, &r.Sub[x], &r.Sub[y])
			obliv.CondSwapU64(ct, &r.Seq[x], &r.Seq[y])
			obliv.CondSwapU64(ct, &r.Client[x], &r.Client[y])
			if wide {
				obliv.CondSwapU8(ct, &r.Tag[x], &r.Tag[y])
				obliv.CondSwapU8(ct, &r.Aux[x], &r.Aux[y])
			}
		}
	} else {
		obliv.SwapRunU8(c, r.Op[i:], r.Op[j:])
		obliv.SwapRunU64(c, r.Key[i:], r.Key[j:])
		obliv.SwapRunU32(c, r.Sub[i:], r.Sub[j:])
		obliv.SwapRunU64(c, r.Seq[i:], r.Seq[j:])
		obliv.SwapRunU64(c, r.Client[i:], r.Client[j:])
		if wide {
			obliv.SwapRunU8(c, r.Tag[i:], r.Tag[j:])
			obliv.SwapRunU8(c, r.Aux[i:], r.Aux[j:])
		}
	}
	if wide {
		bs := r.BlockSize
		obliv.SwapRunBlocks(c, r.Data[i*bs:], r.Data[j*bs:], bs)
	}
}

// OCopyRow obliviously sets record dst = record src iff c == 1.
func (r *Requests) OCopyRow(c uint8, dst, src int) {
	r.Rec.Record(trace.KindCopyRow, dst, src)
	obliv.CondSetU8(c, &r.Op[dst], r.Op[src])
	obliv.CondSetU64(c, &r.Key[dst], r.Key[src])
	obliv.CondSetU32(c, &r.Sub[dst], r.Sub[src])
	obliv.CondSetU8(c, &r.Tag[dst], r.Tag[src])
	obliv.CondSetU8(c, &r.Aux[dst], r.Aux[src])
	obliv.CondSetU64(c, &r.Seq[dst], r.Seq[src])
	obliv.CondSetU64(c, &r.Client[dst], r.Client[src])
	obliv.CondCopyBytes(c, r.Block(dst), r.Block(src))
}

// OCopyRowFrom obliviously sets record dst of r = record src of o iff c == 1.
// Both sets must share a block size.
func (r *Requests) OCopyRowFrom(c uint8, dst int, o *Requests, src int) {
	if r.BlockSize != o.BlockSize {
		panic("store: OCopyRowFrom block size mismatch")
	}
	r.Rec.Record(trace.KindCopyRow, dst, src)
	obliv.CondSetU8(c, &r.Op[dst], o.Op[src])
	obliv.CondSetU64(c, &r.Key[dst], o.Key[src])
	obliv.CondSetU32(c, &r.Sub[dst], o.Sub[src])
	obliv.CondSetU8(c, &r.Tag[dst], o.Tag[src])
	obliv.CondSetU8(c, &r.Aux[dst], o.Aux[src])
	obliv.CondSetU64(c, &r.Seq[dst], o.Seq[src])
	obliv.CondSetU64(c, &r.Client[dst], o.Client[src])
	obliv.CondCopyBytes(c, r.Block(dst), o.Block(src))
}

// SetRow plainly (non-obliviously) writes record i; used only on data whose
// position is already public, e.g. ingesting client requests or appending
// dummies.
func (r *Requests) SetRow(i int, op uint8, key uint64, sub uint32, seq, client uint64, data []byte) {
	r.Op[i] = op
	r.Key[i] = key
	r.Sub[i] = sub
	r.Tag[i] = 0
	r.Aux[i] = 0
	r.Seq[i] = seq
	r.Client[i] = client
	b := r.Block(i)
	for k := range b {
		b[k] = 0
	}
	copy(b, data)
}

// CopyRowPlain plainly copies record src of o into record dst of r.
func (r *Requests) CopyRowPlain(dst int, o *Requests, src int) {
	r.Op[dst] = o.Op[src]
	r.Key[dst] = o.Key[src]
	r.Sub[dst] = o.Sub[src]
	r.Tag[dst] = o.Tag[src]
	r.Aux[dst] = o.Aux[src]
	r.Seq[dst] = o.Seq[src]
	r.Client[dst] = o.Client[src]
	copy(r.Block(dst), o.Block(src))
}

// Touch records a full oblivious read/write pass over record i (used by
// scan loops that operate on blocks directly).
func (r *Requests) Touch(i int) { r.Rec.Record(trace.KindTouch, i, 0) }

// View returns a window [lo, hi) of r sharing the same backing arrays.
// The trace recorder is NOT shared: recorded positions would be ambiguous
// across windows; scans over views record via the parent.
func (r *Requests) View(lo, hi int) *Requests {
	return &Requests{
		BlockSize: r.BlockSize,
		Op:        r.Op[lo:hi],
		Key:       r.Key[lo:hi],
		Sub:       r.Sub[lo:hi],
		Tag:       r.Tag[lo:hi],
		Aux:       r.Aux[lo:hi],
		Seq:       r.Seq[lo:hi],
		Client:    r.Client[lo:hi],
		Data:      r.Data[lo*r.BlockSize : hi*r.BlockSize],
	}
}

// ViewInto fills dst with the window [lo, hi) of r sharing the same backing
// arrays — View without the allocation, for callers that keep the window
// struct in preallocated scratch (the epoch engine's per-partition batch
// windows). Like View, the trace recorder is not shared.
func (r *Requests) ViewInto(dst *Requests, lo, hi int) {
	*dst = Requests{
		BlockSize: r.BlockSize,
		Op:        r.Op[lo:hi],
		Key:       r.Key[lo:hi],
		Sub:       r.Sub[lo:hi],
		Tag:       r.Tag[lo:hi],
		Aux:       r.Aux[lo:hi],
		Seq:       r.Seq[lo:hi],
		Client:    r.Client[lo:hi],
		Data:      r.Data[lo*r.BlockSize : hi*r.BlockSize],
	}
}

// Clone returns a deep copy of r.
func (r *Requests) Clone() *Requests {
	c := NewRequests(r.Len(), r.BlockSize)
	c.Rec = r.Rec
	copy(c.Op, r.Op)
	copy(c.Key, r.Key)
	copy(c.Sub, r.Sub)
	copy(c.Tag, r.Tag)
	copy(c.Aux, r.Aux)
	copy(c.Seq, r.Seq)
	copy(c.Client, r.Client)
	copy(c.Data, r.Data)
	return c
}

// Concat returns a fresh record set holding all records of a then b.
func Concat(a, b *Requests) *Requests {
	if a.BlockSize != b.BlockSize {
		panic("store: Concat block size mismatch")
	}
	out := NewRequests(a.Len()+b.Len(), a.BlockSize)
	for i := 0; i < a.Len(); i++ {
		out.CopyRowPlain(i, a, i)
	}
	for i := 0; i < b.Len(); i++ {
		out.CopyRowPlain(a.Len()+i, b, i)
	}
	return out
}

// The orderings below decide a run of compare-exchanges with one borrow
// chain per pair: element i+t belongs after element j+t iff its key tuple is
// greater, i.e. iff subtracting it from j+t's tuple — least significant word
// first, bits.Sub64 carrying the borrow — borrows out of the most
// significant word. Every word of both tuples is read and the same
// instructions run whatever they hold, so execution time does not depend on
// the inputs.

// BySubKeyWriteSeq orders records for load-balancer batch construction
// (paper Fig. 5 step ➌): by subORAM, then key — dummy keys carry the top
// bit, so dummies sink to the end of each subORAM group while duplicates
// become adjacent — then writes before reads, then descending sequence.
// After this sort, the first record of every duplicate run is the
// last-write-wins representative.
type BySubKeyWriteSeq struct{ *Requests }

// GreaterRun implements obliv.Sorter over the tuple (Sub, Key, ^Op, ^Seq):
// a higher Op (a write) and a higher Seq come first.
func (s BySubKeyWriteSeq) GreaterRun(g []uint8, i, j int) {
	r, n := s.Requests, len(g)
	subI, subJ := r.Sub[i:i+n], r.Sub[j:j+n]
	keyI, keyJ := r.Key[i:i+n], r.Key[j:j+n]
	opI, opJ := r.Op[i:i+n], r.Op[j:j+n]
	seqI, seqJ := r.Seq[i:i+n], r.Seq[j:j+n]
	for t := range g {
		_, b := bits.Sub64(^seqJ[t], ^seqI[t], 0)
		_, b = bits.Sub64(uint64(^opJ[t]), uint64(^opI[t]), b)
		_, b = bits.Sub64(keyJ[t], keyI[t], b)
		_, b = bits.Sub64(uint64(subJ[t]), uint64(subI[t]), b)
		g[t] = uint8(b)
	}
}

// BySubKeyTag orders records by Sub, then key, then tag bit: Tag=0 rows
// before Tag=1 rows of the same key (the matching merge's order with a
// 32-bit rank; the sort micro-benchmarks time it).
type BySubKeyTag struct{ *Requests }

// GreaterRun implements obliv.Sorter over the tuple (Sub, Key, Tag).
func (s BySubKeyTag) GreaterRun(g []uint8, i, j int) {
	r, n := s.Requests, len(g)
	subI, subJ := r.Sub[i:i+n], r.Sub[j:j+n]
	keyI, keyJ := r.Key[i:i+n], r.Key[j:j+n]
	tagI, tagJ := r.Tag[i:i+n], r.Tag[j:j+n]
	for t := range g {
		_, b := bits.Sub64(uint64(tagJ[t]), uint64(tagI[t]), 0)
		_, b = bits.Sub64(keyJ[t], keyI[t], b)
		_, b = bits.Sub64(uint64(subJ[t]), uint64(subI[t]), b)
		g[t] = uint8(b)
	}
}

// BySubKey orders records by (Sub, Key); used by hash-table construction
// where Sub holds the bucket index and dummy keys must sink within buckets.
type BySubKey struct{ *Requests }

// GreaterRun implements obliv.Sorter over the tuple (Sub, Key).
func (s BySubKey) GreaterRun(g []uint8, i, j int) { greaterSubKey(s.Requests, g, i, j) }

func greaterSubKey(r *Requests, g []uint8, i, j int) {
	n := len(g)
	subI, subJ := r.Sub[i:i+n], r.Sub[j:j+n]
	keyI, keyJ := r.Key[i:i+n], r.Key[j:j+n]
	for t := range g {
		_, b := bits.Sub64(keyJ[t], keyI[t], 0)
		_, b = bits.Sub64(uint64(subJ[t]), uint64(subI[t]), b)
		g[t] = uint8(b)
	}
}

// ByRank orders records by (Rank, Key, write-first, Seq descending), Rank a
// column every exchange carries along: the load balancer's table order
// (ohash.Rank). Narrow exchanges only Op, Key, Sub, Seq and Client, for
// record sets whose Tag, Aux and value blocks are uniform.
type ByRank struct {
	*Requests
	Rank   []uint64
	Narrow bool
}

// GreaterRun implements obliv.Sorter over the tuple (Rank, Key, ^Op, ^Seq).
func (s ByRank) GreaterRun(g []uint8, i, j int) {
	r, n := s.Requests, len(g)
	rankI, rankJ := s.Rank[i:i+n], s.Rank[j:j+n]
	keyI, keyJ := r.Key[i:i+n], r.Key[j:j+n]
	opI, opJ := r.Op[i:i+n], r.Op[j:j+n]
	seqI, seqJ := r.Seq[i:i+n], r.Seq[j:j+n]
	for t := range g {
		_, b := bits.Sub64(^seqJ[t], ^seqI[t], 0)
		_, b = bits.Sub64(uint64(^opJ[t]), uint64(^opI[t]), b)
		_, b = bits.Sub64(keyJ[t], keyI[t], b)
		_, b = bits.Sub64(rankJ[t], rankI[t], b)
		g[t] = uint8(b)
	}
}

// SwapRun implements obliv.Swapper: the records and their Rank.
func (s ByRank) SwapRun(c []uint8, i, j int) {
	s.swapRun(c, i, j, !s.Narrow)
	obliv.SwapRunU64(c, s.Rank[i:], s.Rank[j:])
}

// ByRankTag orders records for response matching (paper Fig. 6 step ➋) by
// (Rank, Key, Tag): responses (Tag=0) before the requests (Tag=1) they
// answer.
type ByRankTag struct {
	*Requests
	Rank []uint64
}

// GreaterRun implements obliv.Sorter over the tuple (Rank, Key, Tag).
func (s ByRankTag) GreaterRun(g []uint8, i, j int) {
	r, n := s.Requests, len(g)
	rankI, rankJ := s.Rank[i:i+n], s.Rank[j:j+n]
	keyI, keyJ := r.Key[i:i+n], r.Key[j:j+n]
	tagI, tagJ := r.Tag[i:i+n], r.Tag[j:j+n]
	for t := range g {
		_, b := bits.Sub64(uint64(tagJ[t]), uint64(tagI[t]), 0)
		_, b = bits.Sub64(keyJ[t], keyI[t], b)
		_, b = bits.Sub64(rankJ[t], rankI[t], b)
		g[t] = uint8(b)
	}
}

// SwapRun implements obliv.Swapper: the records and their Rank.
func (s ByRankTag) SwapRun(c []uint8, i, j int) {
	s.swapRun(c, i, j, true)
	obliv.SwapRunU64(c, s.Rank[i:], s.Rank[j:])
}

// StampKey writes a batch's table key into every row's Seq and Client —
// columns a partition never reads — so the key travels inside the batch
// and back, echoed, on its responses, in no new wire, log or cache format.
func (r *Requests) StampKey(k [2]uint64) {
	for i := range r.Key {
		r.Seq[i], r.Client[i] = k[0], k[1]
	}
}

// KeyStamp reads the key StampKey left on row i.
func (r *Requests) KeyStamp(i int) [2]uint64 { return [2]uint64{r.Seq[i], r.Client[i]} }
