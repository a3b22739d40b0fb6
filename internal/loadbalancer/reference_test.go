package loadbalancer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/trace"
	"snoopy/internal/wirecode"
)

// refBuildRun is the pad-and-sort run construction this package used before
// obliv.Distribute: append α dummies per subORAM to the real rows, sort all
// R + α·S of them, keep the first α distinct keys per subORAM, compact,
// truncate. Kept verbatim as the specification buildRun must reproduce byte
// for byte.
func refBuildRun(lb *LoadBalancer, reqs *store.Requests, alpha int, seqBase uint64) (*store.Requests, []uint64) {
	n := reqs.Len()
	s := lb.cfg.NumSubORAMs
	work := store.NewRequests(n+alpha*s, lb.cfg.BlockSize)
	for i := 0; i < n; i++ {
		work.CopyRowPlain(i, reqs, i)
		work.Sub[i] = uint32(lb.SubORAMFor(work.Key[i]))
		work.Seq[i] = seqBase + reqs.Seq[i]
	}
	d := n
	for sub := 0; sub < s; sub++ {
		for j := 0; j < alpha; j++ {
			key := store.DummyKeyBit | uint64(sub)<<32 | uint64(j)
			work.SetRow(d, store.OpRead, key, uint32(sub), 0, 0, nil)
			d++
		}
	}
	obliv.Sort(store.BySubKeyWriteSeq{Requests: work})
	keep := make([]uint8, work.Len())
	drop := make([]uint8, work.Len())
	_, droppedKeys := dedupeKeep(work, alpha, keep, drop)
	obliv.Compact(work, keep)
	work.Resize(alpha * s)
	return work, droppedKeys
}

// sameRows fails unless a and b are byte-identical: same block size, same
// record count, every column of every record — compared in wire form.
func sameRows(t *testing.T, what string, a, b *store.Requests) {
	t.Helper()
	if !bytes.Equal(wirecode.AppendRequests(nil, a), wirecode.AppendRequests(nil, b)) {
		t.Fatalf("%s: records differ\n got keys %x\nwant keys %x", what, a.Key, b.Key)
	}
}

// epochReqs draws n duplicate-heavy mixed requests with every column set.
func epochReqs(rng *rand.Rand, n, keyspace int) *store.Requests {
	reqs := store.NewRequests(n, testBlock)
	for i := 0; i < n; i++ {
		op := store.OpRead
		if rng.Intn(3) == 0 {
			op = store.OpWrite
		}
		reqs.SetRow(i, op, uint64(rng.Intn(keyspace)), 0, uint64(i), uint64(1000+i), nil)
		reqs.Tag[i], reqs.Aux[i] = uint8(rng.Intn(2)), uint8(rng.Intn(2))
		rng.Read(reqs.Block(i))
	}
	return reqs
}

// TestBuildRunMatchesPadAndSortReference: the monolithic MakeBatches and a
// tree leaf's BuildRun (seqBase ≠ 0) emit runs byte-identical to the
// pad-and-sort construction's — same occupied slots, same last-write-wins
// representatives, same dummy-key numbering — across the size edges and
// random epochs.
func TestBuildRunMatchesPadAndSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const S = 4
	cfg := Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}
	key := crypt.MustNewKey()
	lb := New(cfg, key)
	leaf := NewLeaf(cfg, key, 2)

	sizes := []int{0, 1, 2, 7, 8, 9, 2048}
	for _, r := range []int{128, 512} { // R whose α the edge cases straddle
		a := batch.Size(r, S, cfg.Lambda)
		sizes = append(sizes, a-1, a, r)
	}
	for trial := 0; trial < 25; trial++ {
		sizes = append(sizes, rng.Intn(900))
	}
	for _, n := range sizes {
		reqs := epochReqs(rng, n, 1+n/2)

		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantDropped := refBuildRun(lb, reqs, b.PerSub, 0)
		sameRows(t, fmt.Sprintf("R=%d monolithic", n), b.All, want)
		if !reflect.DeepEqual(b.DroppedKeys, wantDropped) {
			t.Fatalf("R=%d: dropped %v, reference %v", n, b.DroppedKeys, wantDropped)
		}
		b.Release()

		const seqBase = 1 << 20
		alpha := max(batch.Size(n, S, cfg.Lambda), 1)
		dst := store.NewRequests(alpha*S, testBlock)
		dropped, err := leaf.BuildRun(7, reqs, alpha, seqBase, dst)
		if err != nil {
			t.Fatal(err)
		}
		want, wantDropped = refBuildRun(lb, reqs, alpha, seqBase)
		sameRows(t, fmt.Sprintf("R=%d leaf run", n), dst, want)
		if !reflect.DeepEqual(dropped, wantDropped) {
			t.Fatalf("R=%d leaf: dropped %v, reference %v", n, dropped, wantDropped)
		}
	}
}

// TestMakeBatchesTheorem3Boundary pins the overflow edge nothing else does:
// exactly α distinct keys aimed at one subORAM all fit (that batch is then
// all real rows, no dummies); one more drops exactly one request — the
// largest key, since a batch keeps its α smallest — and reports it.
func TestMakeBatchesTheorem3Boundary(t *testing.T) {
	const S, R = 4, 400
	lb := New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}, crypt.MustNewKey())
	alpha := lb.BatchSize(R)
	if alpha+1 >= R {
		t.Fatalf("test needs α+1 < R, α=%d", alpha)
	}
	// keys[sub] ascend, so keys[2][alpha] is the largest of the first α+1.
	keys := make([][]uint64, S)
	for k := uint64(1); len(keys[2]) < alpha+1 || len(keys[0]) < R; k++ {
		keys[lb.SubORAMFor(k)] = append(keys[lb.SubORAMFor(k)], k)
	}
	for _, extra := range []int{0, 1} {
		hot := alpha + extra
		reqs := store.NewRequests(R, testBlock)
		for i := 0; i < R; i++ {
			k := keys[0][i%8] // the rest of the epoch: duplicates elsewhere
			if i < hot {
				k = keys[2][hot-1-i] // arrival order must not matter
			}
			reqs.SetRow(i, store.OpRead, k, 0, uint64(i), uint64(i), nil)
		}
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if b.PerSub != alpha {
			t.Fatalf("α moved: %d vs %d", b.PerSub, alpha)
		}
		if b.Dropped != extra || len(b.DroppedKeys) != extra {
			t.Fatalf("%d distinct keys into one subORAM of α=%d: dropped %d %v, want %d",
				hot, alpha, b.Dropped, b.DroppedKeys, extra)
		}
		if extra == 1 && b.DroppedKeys[0] != keys[2][alpha] {
			t.Fatalf("victim %d, want the largest key %d", b.DroppedKeys[0], keys[2][alpha])
		}
		part := b.For(2)
		for i := 0; i < alpha; i++ {
			if part.Key[i] != keys[2][i] {
				t.Fatalf("subORAM 2 slot %d holds %#x, want key %d", i, part.Key[i], keys[2][i])
			}
		}
		want, _ := refBuildRun(lb, reqs, alpha, 0)
		sameRows(t, "boundary batches", b.All, want)
		b.Release()
	}
}

// TestCostFunctionsCountTheEpoch pins MakeBatchesCost/MatchResponsesCost to
// the implementation: the recorder sees exactly that many row swaps, plus
// the linear passes (dedupe touch and clear per request, one touch per
// batch slot; one propagation touch per matched row).
func TestCostFunctionsCountTheEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, sh := range []struct{ r, s int }{{1, 1}, {120, 2}, {512, 1}, {2048, 4}} {
		rec := trace.New()
		lb := New(Config{BlockSize: testBlock, NumSubORAMs: sh.s, SortWorkers: 1, Rec: rec}, crypt.MustNewKey())
		reqs := epochReqs(rng, sh.r, 1+sh.r/2)
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		rows := sh.r + b.PerSub*sh.s
		if got, want := rec.Count(), uint64(MakeBatchesCost(sh.r, sh.s, b.PerSub)+sh.r+rows); got != want {
			t.Fatalf("R=%d S=%d: MakeBatches recorded %d events, cost+linear says %d", sh.r, sh.s, got, want)
		}
		before := rec.Count()
		if _, err := lb.MatchResponses(b.All, reqs); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Count()-before, uint64(MatchResponsesCost(sh.r, sh.s, b.PerSub)+rows); got != want {
			t.Fatalf("R=%d S=%d: MatchResponses recorded %d events, cost+linear says %d", sh.r, sh.s, got, want)
		}
	}
}
