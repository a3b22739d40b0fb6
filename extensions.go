package snoopy

import (
	"time"

	"snoopy/internal/core"
	"snoopy/internal/planner"
	"snoopy/internal/replica"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// This file exposes the paper's extension features (§6, §9, Appendix D):
// access control, fault-tolerant/rollback-protected partitions, and the
// latency-minimizing planner. Partition failover needs nothing here:
// Config.FailoverAfter and Config.Failover drive it from the epochs.

// Operation codes for ACL rules.
const (
	OpRead  = store.OpRead
	OpWrite = store.OpWrite
)

// ACLRule grants a user an operation on an object (Appendix D).
type ACLRule = core.ACLRule

// EnableACL installs an access-control matrix, served obliviously by an
// internal recursive Snoopy instance (paper §D). Call before submitting
// requests; afterwards use ReadAs/WriteAs. Plain Read/Write run as user 0.
func (s *Store) EnableACL(rules []ACLRule, aclSubORAMs int) error {
	return s.sys.EnableACL(rules, aclSubORAMs)
}

// ReadAs reads key on behalf of user; denied reads return zeroes with
// ok == false, indistinguishable (to the storage) from permitted ones.
func (s *Store) ReadAs(user, key uint64) (value []byte, ok bool, err error) {
	return s.sys.ReadAs(user, key)
}

// WriteAs writes key on behalf of user; denied writes change nothing.
func (s *Store) WriteAs(user, key uint64, value []byte) (previous []byte, ok bool, err error) {
	return s.sys.WriteAs(user, key, value)
}

// NewReplicatedSubORAM builds a partition replicated across f+r+1 local
// nodes, tolerating f crashes and r rollback attacks, with a trusted
// monotonic counter detecting stale replicas (paper §9). The result plugs
// into OpenWithSubORAMs like any partition.
func NewReplicatedSubORAM(blockSize, f, r int, sealed bool) (SubORAM, error) {
	return NewReplicatedSubORAMOptions(blockSize, ReplicaOptions{F: f, R: r, Sealed: sealed})
}

// ReplicaOptions configures a self-healing replicated partition. Every
// field is public deployment configuration.
type ReplicaOptions struct {
	// F and R are the tolerated crash and rollback counts; the group has
	// F+R+1 members.
	F, R int
	// Spares adds standby members that hold no state until promoted; when
	// auto-heal finds a member unreachable it promotes a spare in its
	// place and resynchronizes it from a fresh peer.
	Spares int
	// AutoHealAfter, when > 0, resynchronizes stale members and promotes
	// spares for unreachable ones after a member misses that many
	// consecutive batches. The resync transfer is a whole sealed
	// partition image — its size is a public function of partition
	// geometry, so rejoin leaks nothing beyond what Theorem 3 already
	// makes public.
	AutoHealAfter int
	// ReplyTimeout bounds each member's reply per batch (0 = wait
	// forever); members that miss it are counted failed for that batch
	// and the quorum proceeds without them.
	ReplyTimeout time.Duration
	// Sealed keeps member partitions in enclave-external sealed memory.
	Sealed bool
}

// NewReplicatedSubORAMOptions is NewReplicatedSubORAM with self-healing
// knobs: standby spares, automatic resync/promotion, and a per-batch reply
// deadline (paper §9 plus the repair loop that returns a faulted group to
// full health).
func NewReplicatedSubORAMOptions(blockSize int, opt ReplicaOptions) (SubORAM, error) {
	n := opt.F + opt.R + 1
	newRep := func() *replica.Replica {
		return replica.NewReplica(suboram.New(suboram.Config{
			BlockSize: blockSize, Sealed: opt.Sealed,
		}))
	}
	reps := make([]*replica.Replica, n)
	for i := range reps {
		reps[i] = newRep()
	}
	g, err := replica.NewGroup(reps, nil, opt.F, opt.R)
	if err != nil {
		return nil, err
	}
	if opt.ReplyTimeout > 0 {
		g.SetTimeout(opt.ReplyTimeout)
	}
	if opt.AutoHealAfter > 0 {
		g.SetAutoHeal(opt.AutoHealAfter)
	}
	for i := 0; i < opt.Spares; i++ {
		g.AddSpare(newRep())
	}
	return g, nil
}

// PlanDeploymentForBudget is the §6 extension planner: given a data size,
// a throughput target, and a monthly budget, it returns the configuration
// minimizing average latency.
func PlanDeploymentForBudget(objects, blockSize int, minThroughput, monthlyBudget float64) (Plan, error) {
	model := planner.Calibrate(blockSize, 128)
	return planner.OptimizeLatency(planner.Requirements{
		Objects:       objects,
		BlockSize:     blockSize,
		MinThroughput: minThroughput,
		MaxLatency:    time.Hour, // bounded by the budget search instead
	}, monthlyBudget, model, planner.DefaultPrices())
}
