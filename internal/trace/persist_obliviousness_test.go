package trace_test

import (
	"math/rand"
	"sort"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/ohash"
	"snoopy/internal/persist"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
)

// randomImage builds n objects with sorted distinct random ids and random
// values — per-trial secret contents over a fixed public size.
func randomImage(rng *rand.Rand, n int) (ids []uint64, data []byte) {
	seen := map[uint64]bool{}
	for len(ids) < n {
		id := uint64(rng.Intn(1 << 20))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	data = make([]byte, n*block)
	rng.Read(data)
	return ids, data
}

// TestPersistenceTraceIndependentOfRequests checks the durability layer's
// own obliviousness claim, in both placements: the host-visible file I/O —
// every (offset, length) the disk observes, for WAL appends, image writes,
// and recovery reads — depends only on public parameters (object count,
// block size, segment size, batch length, epoch count), never on which
// objects are accessed, the read/write mix, or the stored values.
func TestPersistenceTraceIndependentOfRequests(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "disk"}[disk], func(t *testing.T) {
			persistenceTrace(t, persist.Config{BlockSize: block, SegmentBlocks: 8, SnapshotEvery: 3, Disk: disk})
		})
	}
}

func persistenceTrace(t *testing.T, cfg persist.Config) {
	const (
		n      = 64 // objects per partition
		m      = 24 // requests per batch (public)
		epochs = 7  // crosses a SnapshotEvery boundary mid-stream
	)
	rng := rand.New(rand.NewSource(91))
	build := func(scan suboram.BlockStore) persist.Partition {
		return suboram.New(suboram.Config{BlockSize: block, Store: scan})
	}

	var refWrite, refRecover *trace.Recorder
	for trial := 0; trial < 4; trial++ {
		dir := t.TempDir()
		// Only the persistence layer is traced (on disk, that includes the
		// scan's segment I/O): the subORAM's in-memory scan trace is covered
		// by its own test, and tracing it here would mix in the per-trial
		// (public) hash keys.
		rec := trace.New()
		tcfg := cfg
		tcfg.Rec = rec
		dur, err := persist.NewDurable(dir, tcfg, build)
		if err != nil {
			t.Fatal(err)
		}
		ids, data := randomImage(rng, n)
		if err := dur.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			reqs := store.NewRequests(m, block)
			perm := rng.Perm(1 << 20)
			for i := 0; i < m; i++ {
				key := uint64(perm[i]) // distinct; hit-or-miss varies by trial
				if rng.Intn(2) == 0 {
					key = ids[rng.Intn(n)] // force some hits (still distinct via perm fallback)
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
			if _, err := dur.BatchAccess(reqs); err != nil {
				t.Fatal(err)
			}
		}
		dur.Close()
		if trial == 0 {
			refWrite = rec
		} else if !trace.Equal(refWrite, rec) {
			t.Fatalf("trial %d: persistence write trace depends on request contents (%d events vs %d)",
				trial, rec.Count(), refWrite.Count())
		}

		// Recovery path: reopening the directory must also read a
		// content-independent (offset, length) sequence.
		rrec := trace.New()
		rcfg := cfg
		rcfg.Rec = rrec
		dur2, err := persist.NewDurable(dir, rcfg, build)
		if err != nil {
			t.Fatal(err)
		}
		if !dur2.Recovered() {
			t.Fatal("reopen did not recover")
		}
		dur2.Close()
		if trial == 0 {
			refRecover = rrec
		} else if !trace.Equal(refRecover, rrec) {
			t.Fatalf("trial %d: recovery trace depends on stored contents (%d events vs %d)",
				trial, rrec.Count(), refRecover.Count())
		}
	}
	if refWrite.Count() == 0 || refRecover.Count() == 0 {
		t.Fatal("persistence layer recorded no file events")
	}
}
