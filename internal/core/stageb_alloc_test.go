package core

import (
	"testing"
	"time"

	"snoopy/internal/arena"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

// stubPartition answers every delivery from preallocated responses,
// isolating the engine's dispatch overhead from partition work.
type stubPartition struct {
	outs   []*store.Requests
	nCalls int
}

func (s *stubPartition) Init(ids []uint64, data []byte) error { return nil }

func (s *stubPartition) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	s.nCalls++
	return s.outs[:len(reqs)], nil
}

// TestPartStageBZeroAlloc guards the stage-B worker-pool dispatch path:
// gathering an epoch's live batches into the per-partition scratch,
// handing them to the partition as one delivery, and scattering the
// responses must allocate nothing — the zero-alloc contract extended to
// the overlapped engine. Both a stub and a real partition are pinned, at
// L = 3: one Deliver call carries all three batches.
func TestPartStageBZeroAlloc(t *testing.T) {
	const L, S, perSub = 3, 1, 4
	stub := &stubPartition{}
	for i := 0; i < L; i++ {
		stub.outs = append(stub.outs, store.NewRequests(perSub, testBlock))
	}
	sys, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: L, Lambda: 32,
	}, []SubORAMClient{stub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	job := &epochJob{
		id:        1,
		eps:       make([]lbEpoch, L),
		responses: make([][]*store.Requests, L),
		subWall:   make([]time.Duration, S),
		subErr:    make([]error, S),
		subUsed:   make([]SubORAMClient, S),
	}
	for i := range job.eps {
		job.eps[i].batches = &loadbalancer.Batches{
			All:    store.NewRequests(S*perSub, testBlock),
			PerSub: perSub,
		}
		job.eps[i].perSub = perSub
		job.responses[i] = make([]*store.Requests, S)
	}

	sys.partStageB(job, 0) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		job.id++
		sys.partStageB(job, 0)
	})
	if allocs != 0 {
		t.Fatalf("stage-B dispatch allocates %.1f per epoch, want 0", allocs)
	}
	if stub.nCalls == 0 {
		t.Fatal("the client's Deliver never called — guard is vacuous")
	}
	if job.responses[L-1][0] != stub.outs[L-1] {
		t.Fatal("responses not scattered positionally")
	}

	// A real partition: same contract.
	for i := range job.eps {
		job.eps[i].err = nil
	}
	plain := suboram.New(suboram.Config{BlockSize: testBlock})
	ids := make([]uint64, perSub)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if err := plain.Init(ids, make([]byte, perSub*testBlock)); err != nil {
		t.Fatal(err)
	}
	sys2, err := NewWithSubORAMs(Config{
		BlockSize: testBlock, NumLoadBalancers: L, Lambda: 32,
	}, []SubORAMClient{plain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys2.Close)
	for i := range job.eps {
		all := job.eps[i].batches.All
		for r := 0; r < all.Len(); r++ {
			all.SetRow(r, store.OpRead, uint64(r+1), 0, uint64(r), uint64(r), nil)
		}
		ohash.Order(all, crypt.SipKey{1, 2}) // S = 1: the set is one batch
	}
	sys2.partStageB(job, 0)
	releaseResponses(job, S)
	allocs = testing.AllocsPerRun(100, func() {
		job.id++
		sys2.partStageB(job, 0)
		releaseResponses(job, S)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("stage-B dispatch to a real partition allocates %.1f per epoch, want 0", allocs)
	}
}

func releaseResponses(job *epochJob, S int) {
	for i := range job.responses {
		for s := 0; s < S; s++ {
			if job.responses[i][s] != nil {
				arena.Default.PutRequests(job.responses[i][s])
				job.responses[i][s] = nil
			}
		}
	}
}
