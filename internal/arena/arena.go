// Package arena recycles the data plane's per-epoch working memory. A
// steady-state Snoopy epoch used to allocate its entire working set every
// round — batch scratch in the load balancer, hash-table work arrays and
// tiers in the subORAM, response sets crossing back — so at high epoch
// rates the garbage collector, not the oblivious passes, set the throughput
// ceiling. The arena gives every per-epoch allocation site an explicit
// acquire/release lifecycle over size-classed free lists: after one warm-up
// epoch the hot path performs zero heap allocations (guarded by
// testing.AllocsPerRun tests in loadbalancer, ohash, and suboram).
//
// Lifecycle rules (see ARCHITECTURE.md "Data plane"):
//
//   - Get* returns a zeroed object of exactly the requested size whose
//     backing storage is a size class (record counts round up to a power of
//     two). Put* returns it; releasing is always OPTIONAL — an object that
//     is never released is simply collected by the GC, so APIs that hand
//     pooled objects to callers outside the epoch loop stay safe.
//   - An object must not be released while any alias (View, column slice,
//     Block) is still live, and must not be released twice. Put panics on a
//     detectable double release.
//   - The pool is safe for concurrent use; the pipelined epoch loop
//     releases epoch e's buffers while epoch e+1 acquires.
//
// Obliviousness is unaffected: pooling changes only where backing arrays
// come from, never the sequence of oblivious operations over them, and
// size classes are functions of public quantities (batch sizes, block
// size) only.
package arena

import (
	"fmt"
	"math/bits"
	"sync"

	"snoopy/internal/store"
)

// minClassRows is the smallest record-count size class.
const minClassRows = 16

// maxPerClass bounds the free list of one size class; beyond it, released
// objects are dropped for the GC. It bounds steady-state retention at a few
// epochs' working set per class.
const maxPerClass = 64

// classRows rounds a record count up to its size class.
func classRows(n int) int {
	if n <= minClassRows {
		return minClassRows
	}
	return 1 << bits.Len(uint(n-1))
}

type reqClass struct{ rows, block int }

// Stats counts pool traffic; used by tests and capacity planning.
type Stats struct {
	Hits    uint64 // Get satisfied from a free list
	Misses  uint64 // Get that had to allocate
	Puts    uint64 // objects returned
	Dropped uint64 // returns discarded (full or foreign-sized)
}

// Pool is a set of size-classed free lists for the data plane's working
// objects: record sets, mark-bit vectors, and value blocks.
type Pool struct {
	mu     sync.Mutex
	reqs   map[reqClass][]*store.Requests
	bits   map[int][][]uint8
	blocks map[int][][]byte
	stats  Stats
}

// Default is the process-wide data-plane pool. The load balancer, hash
// table, subORAM, epoch pipeline, and transport all draw from it unless a
// test threads a private pool through their configs.
var Default = NewPool()

// NewPool creates an empty pool.
func NewPool() *Pool {
	return &Pool{
		reqs:   make(map[reqClass][]*store.Requests),
		bits:   make(map[int][][]uint8),
		blocks: make(map[int][][]byte),
	}
}

// GetRequests returns a zeroed record set of exactly n records with the
// given block size, backed by pooled storage when available.
func (p *Pool) GetRequests(n, blockSize int) *store.Requests {
	return p.GetRequestsRoom(n, n, blockSize)
}

// GetRequestsRoom is GetRequests with room to Resize to room records; only
// the n are zeroed, so the caller writes each one past them before reading.
func (p *Pool) GetRequestsRoom(n, room, blockSize int) *store.Requests {
	if n < 0 || room < n || blockSize <= 0 {
		panic(fmt.Sprintf("arena: invalid GetRequests dims n=%d room=%d block=%d", n, room, blockSize))
	}
	c := reqClass{rows: classRows(room), block: blockSize}
	var r *store.Requests
	p.mu.Lock()
	if list := p.reqs[c]; len(list) > 0 {
		r = list[len(list)-1]
		list[len(list)-1] = nil
		p.reqs[c] = list[:len(list)-1]
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	p.mu.Unlock()
	if r == nil {
		r = store.NewRequests(c.rows, blockSize)
	}
	r.Resize(n)
	r.Reset()
	return r
}

// PutRequests releases a record set back to the pool. Only sets whose
// backing storage is exactly a size class are retained (anything else —
// e.g. a plain NewRequests result — is left to the GC), so Put is safe to
// call on any Requests the caller owns. The set's trace recorder is
// detached. Panics if r is already on a free list.
func (p *Pool) PutRequests(r *store.Requests) {
	if r == nil {
		return
	}
	r.Rec = nil
	rows := r.Cap()
	c := reqClass{rows: rows, block: r.BlockSize}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if rows != classRows(rows) || len(p.reqs[c]) >= maxPerClass {
		p.stats.Dropped++
		return
	}
	for _, f := range p.reqs[c] {
		if f == r {
			panic("arena: PutRequests double release")
		}
	}
	r.Resize(rows)
	p.reqs[c] = append(p.reqs[c], r)
}

// GetBits returns a zeroed mark-bit vector of length n (the keep/overflow
// masks the oblivious compaction passes consume).
func (p *Pool) GetBits(n int) []uint8 {
	if n < 0 {
		panic("arena: negative GetBits length")
	}
	rows := classRows(n)
	var b []uint8
	p.mu.Lock()
	if list := p.bits[rows]; len(list) > 0 {
		b = list[len(list)-1]
		list[len(list)-1] = nil
		p.bits[rows] = list[:len(list)-1]
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]uint8, rows)
	}
	b = b[:n]
	clear(b)
	return b
}

// PutBits releases a mark-bit vector obtained from GetBits.
func (p *Pool) PutBits(b []uint8) {
	if b == nil {
		return
	}
	rows := cap(b)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if rows != classRows(rows) || len(p.bits[rows]) >= maxPerClass {
		p.stats.Dropped++
		return
	}
	p.bits[rows] = append(p.bits[rows], b[:rows])
}

// GetBlock returns a zeroed byte buffer of length n (value-block scratch).
func (p *Pool) GetBlock(n int) []byte {
	if n < 0 {
		panic("arena: negative GetBlock length")
	}
	rows := classRows(n)
	var b []byte
	p.mu.Lock()
	if list := p.blocks[rows]; len(list) > 0 {
		b = list[len(list)-1]
		list[len(list)-1] = nil
		p.blocks[rows] = list[:len(list)-1]
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, rows)
	}
	b = b[:n]
	clear(b)
	return b
}

// PutBlock releases a byte buffer obtained from GetBlock.
func (p *Pool) PutBlock(b []byte) {
	if b == nil {
		return
	}
	rows := cap(b)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if rows != classRows(rows) || len(p.blocks[rows]) >= maxPerClass {
		p.stats.Dropped++
		return
	}
	p.blocks[rows] = append(p.blocks[rows], b[:rows])
}

// Stats returns a snapshot of pool traffic counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
