package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/ohash"
	"snoopy/internal/persist"
	"snoopy/internal/segstore"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
)

// TestSegstoreTraceIndependentOfContents checks the segment store's
// obliviousness claim end to end, in both places a partition can live
// sealed: the host-visible I/O — every (kind, offset, length) the host
// observes across segment slot reads and writes, WAL appends, and registry
// commits — is byte-identical across workloads that differ only in secrets
// (which objects exist, which are accessed, the read/write mix, the stored
// values) while sharing the same public shape (object count, block size,
// segment geometry, batch length, epoch count). The placements: a durable
// partition (persist.Durable, and its recovery) in memory and on disk, whose
// image is the store, and the Sealed placement — the store over host memory,
// no persistence. Workers stays 1: the Recorder is not concurrency-safe, and
// one worker keeps the interleaving canonical.
func TestSegstoreTraceIndependentOfContents(t *testing.T) {
	const (
		n         = 64 // objects per partition (public)
		m         = 24 // requests per batch (public)
		epochs    = 5
		segBlocks = 8 // 8 segments of 8 blocks; buffer is 1/8 the partition
	)
	rng := rand.New(rand.NewSource(97))
	workload := func(ids []uint64) []*store.Requests {
		batches := make([]*store.Requests, epochs)
		for e := range batches {
			reqs := store.NewRequests(m, block)
			perm := rng.Perm(1 << 20)
			for i := 0; i < m; i++ {
				key := uint64(perm[i]) // distinct; hit-or-miss varies by trial
				if rng.Intn(2) == 0 {
					key = ids[rng.Intn(n)]
					for j := 0; j < i; j++ {
						if reqs.Key[j] == key {
							key = uint64(perm[i])
							break
						}
					}
				}
				op := store.OpRead
				var val []byte
				if rng.Intn(2) == 0 {
					op = store.OpWrite
					val = make([]byte, block)
					rng.Read(val)
				}
				reqs.SetRow(i, op, key, 0, uint64(i), uint64(i), val)
			}
			ohash.Order(reqs, crypt.SipKey{1, 2}) // the key held equal across trials
			batches[e] = reqs
		}
		return batches
	}
	type partition interface {
		Init(ids []uint64, data []byte) error
		BatchAccess(*store.Requests) (*store.Requests, error)
	}
	run := func(p partition, ids []uint64, data []byte, batches []*store.Requests) {
		if err := p.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		for _, reqs := range batches {
			if _, err := p.BatchAccess(reqs); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(trial int, ref **trace.Recorder, rec *trace.Recorder, what string) {
		if trial == 0 {
			*ref = rec
		} else if !trace.Equal(*ref, rec) {
			t.Fatalf("trial %d: %s depends on secrets (%d events vs %d)", trial, what, rec.Count(), (*ref).Count())
		}
	}

	var refWrite, refRecover [2]*trace.Recorder
	var refMem *trace.Recorder
	for trial := 0; trial < 4; trial++ {
		ids, data := randomImage(rng, n)
		batches := workload(ids)

		for p, disk := range []bool{false, true} {
			dir := t.TempDir()
			rec := trace.New()
			cfg := persist.Config{BlockSize: block, SegmentBlocks: segBlocks, Disk: disk, SnapshotEvery: 2, Rec: rec}
			build := func(scan suboram.BlockStore) persist.Partition {
				return suboram.New(suboram.Config{BlockSize: block, Workers: 1, Store: scan})
			}
			dur, err := persist.NewDurable(dir, cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			run(dur, ids, data, batches)
			dur.Close()
			same(trial, &refWrite[p], rec, fmt.Sprintf("durable (disk=%v) I/O trace", disk))

			// Recovery: reopening the directory streams a verification pass
			// whose (offset, length) sequence must be content-independent too.
			rrec := trace.New()
			cfg.Rec = rrec
			dur2, err := persist.NewDurable(dir, cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			if !dur2.Recovered() {
				t.Fatal("reopen did not recover")
			}
			dur2.Close()
			same(trial, &refRecover[p], rrec, fmt.Sprintf("durable (disk=%v) recovery trace", disk))
		}

		// The Sealed placement: the same store over host memory.
		mrec := trace.New()
		ss, err := segstore.Open("", segstore.Options{
			BlockSize: block, SegmentBlocks: segBlocks, Key: crypt.MustNewKey(), FS: hostfs.NewMem(), Rec: mrec,
		})
		if err != nil {
			t.Fatal(err)
		}
		run(suboram.New(suboram.Config{BlockSize: block, Workers: 1, Store: ss}), ids, data, batches)
		same(trial, &refMem, mrec, "sealed-memory slot trace")
	}
	if refWrite[0].Count() == 0 || refWrite[1].Count() == 0 || refRecover[0].Count() == 0 ||
		refRecover[1].Count() == 0 || refMem.Count() == 0 {
		t.Fatal("a placement recorded no I/O events")
	}
}
