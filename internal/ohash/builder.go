package ohash

import (
	"snoopy/internal/store"
)

// Builder amortizes the table-construction memory across batches: a subORAM
// processes one batch per load balancer per epoch forever, and per-batch
// allocation of the multi-megabyte work arrays dominates GC pressure at high
// epoch rates. The Builder reuses everything — scratch arrays, the tier
// storage, and the Table struct itself — so a steady-state Build performs
// zero heap allocations once warmed up.
//
// Ownership contract: the Table returned by Build (including its tiers) is
// INVALIDATED by the next Build call. The caller must finish with it —
// including Extract, whose output is independently pooled — before building
// again. A Builder is NOT safe for concurrent use; give each goroutine its
// own.
type Builder struct {
	p Params
	// geoms memoises GeometryFor per batch size (Objects and Lambda are the
	// Builder's own): an open loop's α varies from epoch to epoch over a
	// handful of values, and only a new one pays for the search.
	geoms map[int]Geometry

	spill *store.Requests
	keep  []uint8

	tier1 *store.Requests
	tier2 *store.Requests
	tbl   Table
}

// maxMemoisedGeometries bounds Builder.geoms; batch sizes are bounded by
// the epoch's request count, so only a pathological caller reaches it.
const maxMemoisedGeometries = 1 << 12

// NewBuilder creates a Builder for tables scanned against p.Objects objects.
func NewBuilder(p Params) *Builder {
	return &Builder{p: p, geoms: make(map[int]Geometry)}
}

// geometry returns GeometryFor(n, Objects, Lambda), memoised.
func (b *Builder) geometry(n int) Geometry {
	g, ok := b.geoms[n]
	if !ok {
		if len(b.geoms) >= maxMemoisedGeometries {
			clear(b.geoms)
		}
		g = GeometryFor(n, b.p.Objects, b.p.Lambda)
		b.geoms[n] = g
	}
	return g
}

// ensure returns *buf resliced to n records over a backing store whose
// first max(n, table) records are zeroed. The store only ever grows: batch
// sizes that vary from epoch to epoch settle on the largest one's
// allocation instead of reallocating on every change.
func ensure(buf **store.Requests, n, table, block int) *store.Requests {
	used := max(n, table)
	b := *buf
	if b == nil || b.Cap() < used || b.BlockSize != block {
		b = store.NewRequests(used, block)
		*buf = b
	}
	b.Resize(used)
	b.Reset()
	b.Resize(n)
	return b
}

func ensureBits(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// Build obliviously constructs a table from a batch of requests with
// distinct keys, reusing the Builder's scratch buffers, tier storage, and
// Table struct. The batch says what order it is in: its rows carry the hash
// key the load balancer derived for it (store.StampKey; paper §5's fresh
// key for every batch) and ascend in table order under that key, dummies
// last; a batch that does not fails with ErrOrder, and one without a key
// is refused. The input is not modified. The returned table is valid only
// until the next Build call.
func (b *Builder) Build(reqs *store.Requests) (*Table, error) {
	k, err := batchKey(reqs)
	if err != nil {
		return nil, err
	}
	n := reqs.Len()
	g := b.geometry(n)
	b.tbl = Table{Geom: g, K: k, pool: b.p.pool()}
	t := &b.tbl
	// The tiers are built in place: tier 1 starts as the batch itself and
	// tier 2 as the overflow candidates, each with room to grow into its
	// table. The only other row scratch is the n-row spill copy.
	t.Tier1 = ensure(&b.tier1, n, g.B1*g.Z1, reqs.BlockSize)
	t.Tier1.CopyPrefix(reqs)
	t.Tier2 = ensure(&b.tier2, min(g.C2, n), g.B2*g.Z2, reqs.BlockSize)
	spill := ensure(&b.spill, n, 0, reqs.BlockSize)
	if err := t.build(b.p.Rec, spill, ensureBits(&b.keep, n)); err != nil {
		return nil, err
	}
	return t, nil
}
