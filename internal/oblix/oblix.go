// Package oblix reproduces the Oblix baseline (Mishra et al., S&P'18) the
// paper compares against (§8.1): a doubly-oblivious ORAM (DORAM) for
// hardware enclaves built from Path ORAM with the position map stored
// *recursively* in smaller ORAMs, exactly as the paper simulates ("the
// overhead of recursively storing the position map, as in §VI.A of
// Oblix"). Requests are strictly sequential — the property that caps
// Oblix's throughput at one machine and motivates Snoopy.
//
// The package also provides SubORAM, the adapter that mounts a DORAM as a
// Snoopy partition for the paper's Fig. 10 (Snoopy-Oblix) experiment.
package oblix

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"snoopy/internal/ohash"
	"snoopy/internal/pathoram"
	"snoopy/internal/store"
)

// fanout is the number of position-map entries packed per recursion block
// (4-byte leaves in a 16-byte posmap block, a common recursion choice).
const fanout = 4

// posBlockSize is the byte size of a position-map block.
const posBlockSize = fanout * 4

// topLevelMax is the size at which recursion stops and the map is held in
// enclave memory.
const topLevelMax = 64

// DORAM is a doubly-oblivious ORAM with a recursively stored position map.
type DORAM struct {
	mu        sync.Mutex
	blockSize int
	n         int

	data *pathoram.ORAM
	// posLevels[0] stores the data ORAM's leaves (n entries, packed
	// fanout per block); posLevels[k] stores posLevels[k-1]'s leaves.
	posLevels []*pathoram.ORAM
	// top holds the final level's leaves in enclave memory.
	top []uint32
	rng *rand.Rand

	// Doubly-oblivious client cost simulation (see stash_sim.go). Enabled
	// by default; bulk initialization may disable it temporarily.
	simulate bool
	simData  *stashSim
	simPos   *stashSim
}

// New creates a DORAM over n zeroed blocks with dense indices 0..n-1.
func New(n, blockSize int) (*DORAM, error) {
	if n <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("oblix: invalid geometry n=%d block=%d", n, blockSize)
	}
	d := &DORAM{blockSize: blockSize, n: n, rng: rand.New(rand.NewSource(rand.Int63()))}
	d.simulate = true
	d.simData = newStashSim(blockSize)
	d.simPos = newStashSim(posBlockSize)
	var err error
	d.data, err = pathoram.New(n, blockSize)
	if err != nil {
		return nil, err
	}
	entries := n
	for entries > topLevelMax {
		blocks := (entries + fanout - 1) / fanout
		lvl, err := pathoram.New(blocks, posBlockSize)
		if err != nil {
			return nil, err
		}
		d.posLevels = append(d.posLevels, lvl)
		entries = blocks
	}
	d.top = make([]uint32, entries)
	// Leaves for the last recursion level (or the data ORAM if there is no
	// recursion) start random.
	var leaves int
	if len(d.posLevels) > 0 {
		leaves = d.posLevels[len(d.posLevels)-1].NumLeaves()
	} else {
		leaves = d.data.NumLeaves()
	}
	for i := range d.top {
		d.top[i] = uint32(d.rng.Intn(leaves))
	}
	// Lower levels' stored entries default to 0; we must initialize them to
	// valid random leaves so first accesses behave like steady state. A
	// zero leaf is also valid, so correctness holds without a warm-up pass;
	// we keep zeros (matching a freshly initialized deployment).
	return d, nil
}

// Levels returns the number of recursion levels (excluding the in-enclave
// top map) — the count of extra ORAM accesses each request pays.
func (d *DORAM) Levels() int { return len(d.posLevels) }

// SetSimulateObliviousClient toggles the doubly-oblivious stash cost
// simulation. It defaults to on; bulk loaders may disable it while
// populating initial state (a one-time, unmeasured phase).
func (d *DORAM) SetSimulateObliviousClient(on bool) {
	d.mu.Lock()
	d.simulate = on
	d.mu.Unlock()
}

// NumBlocks returns n.
func (d *DORAM) NumBlocks() int { return d.n }

// Access performs one sequential, doubly-oblivious access.
func (d *DORAM) Access(write bool, id uint32, data []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.n {
		return nil, fmt.Errorf("oblix: block %d out of range", id)
	}

	// Walk the recursion from the top: at each level, fetch and remap the
	// posmap block holding the next level's leaf.
	// idxAt[k] is the block index at posLevels[k] that holds the leaf for
	// level k-1 (level -1 being the data ORAM block id).
	L := len(d.posLevels)
	idx := make([]uint32, L+1)
	idx[0] = id // data ORAM index
	for k := 0; k < L; k++ {
		idx[k+1] = idx[k] / fanout
	}

	// Leaf for the top recursion level comes from enclave memory.
	var leaf uint32
	if L == 0 {
		leaf = d.top[id]
		d.top[id] = uint32(d.rng.Intn(d.data.NumLeaves()))
		return d.accessData(write, id, leaf, d.top[id], data)
	}
	topIdx := idx[L]
	leaf = d.top[topIdx]
	newTopLeaf := uint32(d.rng.Intn(d.posLevels[L-1].NumLeaves()))
	d.top[topIdx] = newTopLeaf

	// Descend: at level k (from L-1 down to 0), read posmap block
	// idx[k+1], extract the leaf for idx[k], replace it with a fresh one.
	curOld, curNew := leaf, newTopLeaf
	for k := L - 1; k >= 0; k-- {
		var lowerLeaves int
		if k == 0 {
			lowerLeaves = d.data.NumLeaves()
		} else {
			lowerLeaves = d.posLevels[k-1].NumLeaves()
		}
		slot := int(idx[k] % fanout)
		fresh := uint32(d.rng.Intn(lowerLeaves))
		var extracted uint32
		_, err := d.posLevels[k].AccessWithPos(idx[k+1], curOld, curNew, func(b []byte) {
			extracted = leU32(b[slot*4:])
			putLeU32(b[slot*4:], fresh)
		})
		if err != nil {
			return nil, err
		}
		if d.simulate {
			d.simPos.access(d.posLevels[k].Height()+1, 4)
		}
		curOld, curNew = extracted, fresh
	}
	return d.accessData(write, id, curOld, curNew, data)
}

func (d *DORAM) accessData(write bool, id uint32, oldLeaf, newLeaf uint32, data []byte) ([]byte, error) {
	if d.simulate {
		d.simData.access(d.data.Height()+1, 4)
	}
	var prev []byte
	out, err := d.data.AccessWithPos(id, oldLeaf, newLeaf, func(b []byte) {
		prev = append([]byte(nil), b...)
		if write {
			copy(b, data)
			for i := len(data); i < len(b); i++ {
				b[i] = 0
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if write {
		return prev, nil
	}
	return out, nil
}

// ServerBytesMoved sums traffic across the data ORAM and recursion levels.
func (d *DORAM) ServerBytesMoved() uint64 {
	t := d.data.ServerBytesMoved()
	for _, l := range d.posLevels {
		t += l.ServerBytesMoved()
	}
	return t
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// ---- Snoopy subORAM adapter (paper Fig. 10) ----

// SubORAM mounts a DORAM as a Snoopy partition: batches execute as
// sequential DORAM accesses (dummy requests perform accesses to random
// blocks, keeping the pattern request-independent). It implements
// core.SubORAMClient.
type SubORAM struct {
	mu        sync.Mutex
	blockSize int
	d         *DORAM
	idx       map[uint64]uint32
	rng       *rand.Rand
}

// NewSubORAM creates an empty adapter.
func NewSubORAM(blockSize int) *SubORAM {
	return &SubORAM{blockSize: blockSize, rng: rand.New(rand.NewSource(rand.Int63()))}
}

// Init loads the partition.
func (s *SubORAM) Init(ids []uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(data) != len(ids)*s.blockSize {
		return fmt.Errorf("oblix: data length mismatch")
	}
	n := len(ids)
	if n == 0 {
		n = 1
	}
	d, err := New(n, s.blockSize)
	if err != nil {
		return err
	}
	s.d = d
	// Bulk load without the per-access oblivious-client cost: population is
	// a one-time phase outside the measured request path.
	d.SetSimulateObliviousClient(false)
	s.idx = make(map[uint64]uint32, len(ids))
	for i, id := range ids {
		s.idx[id] = uint32(i)
		if _, err := d.Access(true, uint32(i), data[i*s.blockSize:(i+1)*s.blockSize]); err != nil {
			return err
		}
	}
	d.SetSimulateObliviousClient(true)
	return nil
}

// BatchAccess executes the batch sequentially (Oblix has no batching).
func (s *SubORAM) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d == nil {
		return nil, fmt.Errorf("oblix: not initialized")
	}
	out := reqs.Clone()
	for i := 0; i < out.Len(); i++ {
		key := out.Key[i]
		dense, ok := s.idx[key]
		if !ok {
			// Dummy or absent key: random dummy access, zero response.
			if _, err := s.d.Access(false, uint32(s.rng.Intn(s.d.NumBlocks())), nil); err != nil {
				return nil, err
			}
			zero := out.Block(i)
			for k := range zero {
				zero[k] = 0
			}
			out.Aux[i] = 0
			continue
		}
		var v []byte
		var err error
		if out.Op[i] == store.OpWrite {
			v, err = s.d.Access(true, dense, out.Block(i))
		} else {
			v, err = s.d.Access(false, dense, nil)
		}
		if err != nil {
			return nil, err
		}
		copy(out.Block(i), v)
		out.Aux[i] = 1
	}
	// Answered in the order received; the clone echoes the batch's key.
	return out, nil
}

// Deliver executes a delivery's batches in turn after the delivery gate
// (ohash.CheckDelivery); its one later refusal, an uninitialized adapter's,
// comes at the first batch, so a delivery applies whole or not at all. With
// no delivery window, it ignores the tag. BatchAccess runs any batch ungated.
func (s *SubORAM) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	if err := ohash.CheckDelivery(s.blockSize, reqs); err != nil {
		return nil, err
	}
	outs := make([]*store.Requests, len(reqs))
	for i, r := range reqs {
		var err error
		if outs[i], err = s.BatchAccess(r); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// Export returns a copy of the partition contents. The bulk read disables
// the oblivious-client cost simulation, as migration is an offline phase.
func (s *SubORAM) Export() (ids []uint64, data []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d == nil {
		return nil, nil, fmt.Errorf("oblix: not initialized")
	}
	type pair struct {
		id    uint64
		dense uint32
	}
	pairs := make([]pair, 0, len(s.idx))
	for id, dense := range s.idx {
		pairs = append(pairs, pair{id, dense})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].dense < pairs[j].dense })
	s.d.SetSimulateObliviousClient(false)
	defer s.d.SetSimulateObliviousClient(true)
	ids = make([]uint64, len(pairs))
	data = make([]byte, len(pairs)*s.blockSize)
	for i, p := range pairs {
		ids[i] = p.id
		v, err := s.d.Access(false, p.dense, nil)
		if err != nil {
			return nil, nil, err
		}
		copy(data[i*s.blockSize:(i+1)*s.blockSize], v)
	}
	return ids, data, nil
}
