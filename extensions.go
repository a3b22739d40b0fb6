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
// nodes, tolerating f crashed or stalled nodes and r rollback attacks, with
// a trusted monotonic counter detecting stale replicas (paper §9). A stale
// node is restored from a current one at the next batch; losing more than
// f nodes fails the partition, which Config.Failover handles. The result
// plugs into OpenWithSubORAMs like any partition.
func NewReplicatedSubORAM(blockSize, f, r int, sealed bool) (SubORAM, error) {
	// NewGroup rejects negative bounds; max keeps make from panicking first.
	members := make([]replica.Client, max(f+r+1, 0))
	for i := range members {
		members[i] = replica.NewNode(suboram.New(suboram.Config{BlockSize: blockSize, Sealed: sealed}))
	}
	g, err := replica.NewGroup(members, nil, f, r)
	if err != nil {
		return nil, err
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
