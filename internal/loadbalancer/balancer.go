// Balancer abstracts the load-balancer plane so core.System can drive
// either shape of it: the classic monolithic balancer (one oblivious sort
// over the whole epoch) or the two-level aggregation tree (leaf balancers
// sort + locally dedupe their own clients' requests; a root merges the
// already-sorted runs). The abstraction is feed-based: a feed is one
// independent request-ingestion point — the monolithic balancer has one,
// a tree has one per leaf — and the system keeps one client queue per feed
// so a dead leaf fails only its own clients.
package loadbalancer

import (
	"snoopy/internal/store"
)

// Balancer is the epoch-facing contract of a load-balancer plane.
// Implementations: Monolithic (one feed, the original MakeBatches path) and
// Tree (per-leaf feeds aggregated through an oblivious merge).
type Balancer interface {
	// Feeds is the number of independent request-ingestion points. The
	// caller maintains one queue per feed and passes exactly Feeds()
	// per-feed request snapshots to MakeBatches.
	Feeds() int
	// MakeBatches builds one epoch's per-subORAM batches from the per-feed
	// request snapshots. epoch tags telemetry spans (0 is fine outside an
	// epoch loop). feedErrs, when non-nil, isolates per-feed failures: feed
	// f's requests are absent from the batches iff feedErrs[f] != nil, and
	// the rest of the epoch proceeds — the caller fails only that feed's
	// requests. err reports a plane-wide failure (no batches).
	MakeBatches(epoch uint64, feeds []*store.Requests) (b *Batches, feedErrs []error, err error)
	// MatchResponses obliviously matches the epoch's response set — α rows
	// per subORAM, a failed partition's range blank — back to feed's
	// original request snapshot, returning one row per request with
	// Data/Aux carrying the response. The result is drawn from the
	// balancer's arena; the caller owns and releases it.
	MatchResponses(epoch uint64, responses *store.Requests, feed int, reqs *store.Requests) (*store.Requests, error)
	// SubORAMFor returns the partition storing id.
	SubORAMFor(id uint64) int
	// Partition splits an object set across subORAMs for initialization.
	Partition(ids []uint64, data []byte) ([][]uint64, [][]byte, error)
	// BatchSize is Theorem 3's f(R,S) for this deployment's λ, where R is
	// the whole plane's aggregate epoch request count.
	BatchSize(r int) int
	// LastStats returns the most recent epoch's timing breakdown.
	LastStats() Stats
}

// Monolithic adapts a *LoadBalancer to the Balancer interface: one feed,
// batches built by the single oblivious sort of paper Fig. 5.
type Monolithic struct {
	LB *LoadBalancer
}

// Feeds returns 1: the monolithic balancer ingests everything itself.
func (m Monolithic) Feeds() int { return 1 }

// MakeBatches builds the epoch's batches from the single feed.
func (m Monolithic) MakeBatches(_ uint64, feeds []*store.Requests) (*Batches, []error, error) {
	b, err := m.LB.MakeBatches(feeds[0])
	return b, nil, err
}

// MatchResponses matches responses for the single feed.
func (m Monolithic) MatchResponses(_ uint64, responses *store.Requests, _ int, reqs *store.Requests) (*store.Requests, error) {
	return m.LB.MatchResponses(responses, reqs)
}

// SubORAMFor returns the partition storing id.
func (m Monolithic) SubORAMFor(id uint64) int { return m.LB.SubORAMFor(id) }

// Partition splits an object set for initialization.
func (m Monolithic) Partition(ids []uint64, data []byte) ([][]uint64, [][]byte, error) {
	return m.LB.Partition(ids, data)
}

// BatchSize is f(R,S).
func (m Monolithic) BatchSize(r int) int { return m.LB.BatchSize(r) }

// LastStats returns the last epoch's timing.
func (m Monolithic) LastStats() Stats { return m.LB.LastStats() }
