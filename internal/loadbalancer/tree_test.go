// Tests for the two-level aggregation tree: equivalence with the monolithic
// balancer, Theorem-3 bound preservation, overflow-victim attribution,
// failed-leaf isolation, zero-allocation guards at leaf and root, and the
// monolithic-vs-tree benchmark behind scripts/bench.sh -lbtree.
package loadbalancer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
)

func newTestTree(t testing.TB, key crypt.Key, s, leaves int) *Tree {
	t.Helper()
	tr, err := NewTree(TreeConfig{
		Config: Config{BlockSize: testBlock, NumSubORAMs: s, Lambda: 32},
		Leaves: leaves,
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// splitFeeds deals the rows of all round-robin into nf per-feed request sets
// with local arrival sequence numbers, the way core's per-feed queues would.
// The concatenation order matches all's order per feed, so prefix-sum seq
// bases reproduce all's global last-write-wins order... except that feeds
// are contiguous slices here: feed f gets rows [f*n/nf, (f+1)*n/nf).
func splitFeeds(all *store.Requests, nf int) []*store.Requests {
	n := all.Len()
	feeds := make([]*store.Requests, nf)
	lo := 0
	for f := 0; f < nf; f++ {
		hi := (f + 1) * n / nf
		feeds[f] = store.NewRequests(hi-lo, all.BlockSize)
		for i := lo; i < hi; i++ {
			feeds[f].SetRow(i-lo, all.Op[i], all.Key[i], 0, uint64(i-lo), all.Client[i], all.Block(i))
		}
		lo = hi
	}
	return feeds
}

// TestTreeMatchesMonolithicBatches: for the same aggregate request set, the
// tree's merged+deduped batches are row-for-row identical to the monolithic
// balancer's — same α, same surviving keys, same last-write-wins
// representatives. The tree changes how the batch set is computed, not what
// it is.
func TestTreeMatchesMonolithicBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, tc := range []struct{ s, leaves, n int }{
		{2, 2, 150}, {4, 3, 400}, {3, 4, 257}, {4, 8, 512}, {5, 1, 99},
	} {
		key := crypt.MustNewKey()
		mono := New(Config{BlockSize: testBlock, NumSubORAMs: tc.s, Lambda: 32}, key)
		tree := newTestTree(t, key, tc.s, tc.leaves)

		all := store.NewRequests(tc.n, testBlock)
		for i := 0; i < tc.n; i++ {
			op := store.OpRead
			var data []byte
			if rng.Intn(3) == 0 {
				op = store.OpWrite
				data = []byte(fmt.Sprintf("w%d", i))
			}
			// Dense key space: duplicates within and across feeds.
			all.SetRow(i, op, uint64(rng.Intn(tc.n/2+1)), 0, uint64(i), uint64(i), data)
		}
		bm, err := mono.MakeBatches(all)
		if err != nil {
			t.Fatal(err)
		}
		bt, feedErrs, err := tree.MakeBatches(1, splitFeeds(all, tc.leaves))
		if err != nil {
			t.Fatal(err)
		}
		if feedErrs != nil {
			t.Fatalf("s=%d L=%d: unexpected feed errors %v", tc.s, tc.leaves, feedErrs)
		}
		if bt.PerSub != bm.PerSub {
			t.Fatalf("s=%d L=%d: tree α=%d, monolithic α=%d", tc.s, tc.leaves, bt.PerSub, bm.PerSub)
		}
		if bt.Dropped != 0 || bm.Dropped != 0 {
			t.Fatalf("s=%d L=%d: unexpected drops %d/%d", tc.s, tc.leaves, bt.Dropped, bm.Dropped)
		}
		for i := 0; i < bm.All.Len(); i++ {
			if bt.All.Key[i] != bm.All.Key[i] || bt.All.Op[i] != bm.All.Op[i] || bt.All.Sub[i] != bm.All.Sub[i] {
				t.Fatalf("s=%d L=%d row %d: tree (key=%#x op=%d sub=%d) vs monolithic (key=%#x op=%d sub=%d)",
					tc.s, tc.leaves, i, bt.All.Key[i], bt.All.Op[i], bt.All.Sub[i], bm.All.Key[i], bm.All.Op[i], bm.All.Sub[i])
			}
			if !bytes.Equal(bt.All.Block(i), bm.All.Block(i)) {
				t.Fatalf("s=%d L=%d row %d key %#x: write representative differs", tc.s, tc.leaves, i, bt.All.Key[i])
			}
		}
		bm.Release()
		bt.Release()
	}
}

// TestTreeEndToEndAllAnswered drives multi-epoch Zipf traffic through a tree
// plane and real subORAMs: every request from every feed gets its response,
// and a cross-feed write is visible to a read in the next epoch (global
// last-write-wins across leaves).
func TestTreeEndToEndAllAnswered(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const S, L, objects = 3, 4, 2048
	key := crypt.MustNewKey()
	tree := newTestTree(t, key, S, L)

	subs := make([]*suboram.SubORAM, S)
	ids := make([]uint64, objects)
	data := make([]byte, objects*testBlock)
	for i := range ids {
		ids[i] = uint64(i)
	}
	pids, pdata, err := tree.Partition(ids, data)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < S; s++ {
		subs[s] = suboram.New(suboram.Config{BlockSize: testBlock})
		if err := subs[s].Init(pids[s], pdata[s]); err != nil {
			t.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rng, 1.2, 1, objects-1)
	// last[key] = data of the globally latest write, tracked across feeds.
	last := map[uint64][]byte{}
	for epoch := uint64(0); epoch < 20; epoch++ {
		feeds := make([]*store.Requests, L)
		for f := 0; f < L; f++ {
			n := 10 + rng.Intn(120)
			feeds[f] = store.NewRequests(n, testBlock)
			for j := 0; j < n; j++ {
				op := store.OpRead
				var d []byte
				k := zipf.Uint64()
				if rng.Intn(3) == 0 {
					op = store.OpWrite
					d = []byte(fmt.Sprintf("e%d f%d j%d", epoch, f, j))
				}
				feeds[f].SetRow(j, op, k, 0, uint64(j), uint64(f)<<32|uint64(j), d)
			}
		}
		// The globally latest write per key this epoch, in feed-major order
		// (feed f's local seq j maps to global seq base_f + j, and bases are
		// feed-major prefix sums — so a later feed's write beats an earlier
		// feed's at any local position).
		for f := 0; f < L; f++ {
			for j := 0; j < feeds[f].Len(); j++ {
				if feeds[f].Op[j] == store.OpWrite {
					last[feeds[f].Key[j]] = append([]byte(nil), feeds[f].Block(j)...)
				}
			}
		}
		b, feedErrs, err := tree.MakeBatches(epoch, feeds)
		if err != nil {
			t.Fatal(err)
		}
		if feedErrs != nil || b.Dropped != 0 {
			t.Fatalf("epoch %d: feedErrs=%v dropped=%d", epoch, feedErrs, b.Dropped)
		}
		var all *store.Requests
		for s := 0; s < S; s++ {
			out, err := subs[s].BatchAccess(b.For(s))
			if err != nil {
				t.Fatal(err)
			}
			if all == nil {
				all = out
			} else {
				all = store.Concat(all, out)
			}
		}
		b.Release()
		for f := 0; f < L; f++ {
			matched, err := tree.MatchResponses(epoch, all, f, feeds[f])
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < matched.Len(); j++ {
				if matched.Aux[j] != 1 {
					t.Fatalf("epoch %d feed %d: key %d (client %#x) unanswered",
						epoch, f, matched.Key[j], matched.Client[j])
				}
			}
		}
	}
	// Read everything that was ever written back and check the global
	// last-write-wins value survived the tree's merge ordering.
	probe := store.NewRequests(len(last), testBlock)
	i := 0
	keys := make([]uint64, 0, len(last))
	for k := range last {
		probe.SetRow(i, store.OpRead, k, 0, uint64(i), uint64(i), nil)
		keys = append(keys, k)
		i++
	}
	feeds := make([]*store.Requests, L)
	feeds[0] = probe
	for f := 1; f < L; f++ {
		feeds[f] = store.NewRequests(0, testBlock)
	}
	b, _, err := tree.MakeBatches(99, feeds)
	if err != nil {
		t.Fatal(err)
	}
	var all *store.Requests
	for s := 0; s < S; s++ {
		out, err := subs[s].BatchAccess(b.For(s))
		if err != nil {
			t.Fatal(err)
		}
		if all == nil {
			all = out
		} else {
			all = store.Concat(all, out)
		}
	}
	b.Release()
	matched, err := tree.MatchResponses(99, all, 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64][]byte{}
	for j := 0; j < matched.Len(); j++ {
		got[matched.Key[j]] = matched.Block(j)
	}
	for _, k := range keys {
		want := last[k]
		if !bytes.HasPrefix(got[k], want) {
			t.Fatalf("key %d: read %q, want last-write %q", k, got[k], want)
		}
	}
}

// TestTreeTheorem3Bound: across sampled (R, S, leaves/fan-in, λ), the tree's
// batch size is exactly the monolithic Theorem-3 bound f(R,S) for the
// aggregate rate — splitting ingestion across leaves must not change the
// overflow guarantee — and an actual epoch at rate R produces batches of
// exactly that size.
func TestTreeTheorem3Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, tc := range []struct{ r, s, leaves, lambda int }{
		{128, 2, 2, 32}, {1024, 4, 4, 64}, {4096, 8, 8, 128},
		{777, 3, 5, 80}, {300, 4, 1, 128}, {2048, 16, 2, 64},
	} {
		key := crypt.MustNewKey()
		tree, err := NewTree(TreeConfig{
			Config: Config{BlockSize: testBlock, NumSubORAMs: tc.s, Lambda: tc.lambda},
			Leaves: tc.leaves, FanIn: tc.leaves,
		}, key)
		if err != nil {
			t.Fatal(err)
		}
		want := batch.Size(tc.r, tc.s, tc.lambda)
		if got := tree.BatchSize(tc.r); got != want {
			t.Fatalf("R=%d S=%d L=%d λ=%d: tree bound %d, Theorem 3 says %d",
				tc.r, tc.s, tc.leaves, tc.lambda, got, want)
		}
		all := store.NewRequests(tc.r, testBlock)
		for i := 0; i < tc.r; i++ {
			all.SetRow(i, store.OpRead, rng.Uint64()%uint64(4*tc.r), 0, uint64(i), uint64(i), nil)
		}
		b, feedErrs, err := tree.MakeBatches(0, splitFeeds(all, tc.leaves))
		if err != nil {
			t.Fatal(err)
		}
		if feedErrs != nil {
			t.Fatal(feedErrs)
		}
		if b.PerSub != want || b.All.Len() != want*tc.s {
			t.Fatalf("R=%d S=%d L=%d: epoch batches %d×%d, want α=%d",
				tc.r, tc.s, tc.leaves, b.PerSub, tc.s, want)
		}
		b.Release()
	}
}

// keysInto returns the set of keys routed to a single subORAM — enough
// distinct keys concentrated on one partition to force a Theorem-3 overflow.
func keysInto(tr *Tree, sub, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if tr.SubORAMFor(k) == sub {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTreeOverflowRootVictims: when the aggregate distinct-key load on one
// subORAM exceeds α, the surplus is dropped at the root and reported as
// global victims (DroppedKeys), with no leaf-local drops — each leaf
// individually fit within its own bound α_f.
func TestTreeOverflowRootVictims(t *testing.T) {
	const S, L = 4, 8
	const perLeaf = 32 // Size(32, 4, 32) == 32: a leaf holds 32 distinct keys in one subORAM without overflowing
	const n = perLeaf * L
	key := crypt.MustNewKey()
	tree := newTestTree(t, key, S, L)
	if af := batch.Size(perLeaf, S, 32); af < perLeaf {
		t.Fatalf("per-leaf bound α_f=%d < %d: leaves would drop locally", af, perLeaf)
	}
	alpha := tree.BatchSize(n)
	if alpha >= n {
		t.Fatalf("test needs the high-throughput regime, α=%d ≥ R=%d", alpha, n)
	}
	keys := keysInto(tree, 0, n)
	all := store.NewRequests(n, testBlock)
	for i := 0; i < n; i++ {
		all.SetRow(i, store.OpRead, keys[i], 0, uint64(i), uint64(i), nil)
	}
	b, feedErrs, err := tree.MakeBatches(0, splitFeeds(all, L))
	if err != nil {
		t.Fatal(err)
	}
	if feedErrs != nil {
		t.Fatalf("leaf-level errors on a root-level overflow: %v", feedErrs)
	}
	if b.DroppedByFeed != nil {
		t.Fatalf("leaf-local drops %v; each leaf's %d keys fit in α_f", b.DroppedByFeed, perLeaf)
	}
	if b.Dropped != n-alpha || len(b.DroppedKeys) != n-alpha {
		t.Fatalf("dropped %d (keys %d), want %d = R−α", b.Dropped, len(b.DroppedKeys), n-alpha)
	}
	// Every key is either in the batches or a victim — never both, never
	// neither.
	served := map[uint64]bool{}
	for i := 0; i < b.All.Len(); i++ {
		if !store.IsDummyKey(b.All.Key[i]) {
			served[b.All.Key[i]] = true
		}
	}
	victims := map[uint64]bool{}
	for _, k := range b.DroppedKeys {
		victims[k] = true
	}
	for _, k := range keys {
		if served[k] == victims[k] {
			t.Fatalf("key %d: served=%v victim=%v", k, served[k], victims[k])
		}
	}
	b.Release()
}

// TestTreeOverflowLeafVictims: a single overloaded leaf drops locally; the
// victims land in DroppedByFeed for that feed only, because another leaf
// might still serve the same key.
func TestTreeOverflowLeafVictims(t *testing.T) {
	const S, L = 4, 3
	key := crypt.MustNewKey()
	tree := newTestTree(t, key, S, L)
	const heavy = 500
	feeds := make([]*store.Requests, L)
	// Feed 0 concentrates `heavy` distinct keys on subORAM 0; the others are
	// tiny — so leaf 0 overflows its own bound α_f while the other leaves
	// (and the root, whose surviving union fits within the aggregate α) are
	// fine.
	light := 4
	alphaLeaf := batch.Size(heavy, S, 32)
	if alphaLeaf >= heavy {
		t.Fatalf("α_f=%d ≥ %d: feed 0 would not overflow", alphaLeaf, heavy)
	}
	keys := keysInto(tree, 0, heavy)
	feeds[0] = store.NewRequests(heavy, testBlock)
	for i := 0; i < heavy; i++ {
		feeds[0].SetRow(i, store.OpRead, keys[i], 0, uint64(i), uint64(i), nil)
	}
	for f := 1; f < L; f++ {
		feeds[f] = store.NewRequests(light, testBlock)
		for i := 0; i < light; i++ {
			// Keys leaf 0 also serves (the smallest survive its keep-scan):
			// the light feeds ride along without adding distinct load.
			feeds[f].SetRow(i, store.OpRead, keys[i], 0, uint64(i), uint64(f)<<32|uint64(i), nil)
		}
	}
	b, feedErrs, err := tree.MakeBatches(0, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if feedErrs != nil {
		t.Fatalf("overflow is not a feed error: %v", feedErrs)
	}
	if b.DroppedByFeed == nil || len(b.DroppedByFeed[0]) != heavy-alphaLeaf {
		t.Fatalf("feed 0 dropped %v, want %d = heavy−α_f victims", b.DroppedByFeed, heavy-alphaLeaf)
	}
	for f := 1; f < L; f++ {
		if len(b.DroppedByFeed[f]) != 0 {
			t.Fatalf("light feed %d has %d victims", f, len(b.DroppedByFeed[f]))
		}
	}
	if len(b.DroppedKeys) != 0 {
		t.Fatalf("root dropped %d keys; the surviving union fits in α", len(b.DroppedKeys))
	}
	// The leaf-0 survivors — including every key the light feeds requested —
	// are all in the batches: leaf-local victims are per-feed, not global.
	served := map[uint64]bool{}
	for i := 0; i < b.All.Len(); i++ {
		served[b.All.Key[i]] = true
	}
	for i := 0; i < alphaLeaf; i++ {
		if !served[keys[i]] {
			t.Fatalf("leaf-0 survivor key %d missing from batches", keys[i])
		}
	}
	victims := map[uint64]bool{}
	for _, k := range b.DroppedByFeed[0] {
		victims[k] = true
	}
	for i := alphaLeaf; i < heavy; i++ {
		if !victims[keys[i]] {
			t.Fatalf("overflowed key %d not reported as a feed-0 victim", keys[i])
		}
	}
	b.Release()
}

// failLeaf is a LeafBalancer that always errors — a crashed/unreachable leaf.
type failLeaf struct{}

func (failLeaf) BuildRun(uint64, *store.Requests, int, uint64, *store.Requests) ([]uint64, error) {
	return nil, errors.New("leaf down")
}

// TestTreeFailedLeafIsolated: a dead leaf yields exactly one feed error; the
// epoch's batches keep their public shape, the other feeds' keys are all
// served, and the dead feed's exclusive keys are absent.
func TestTreeFailedLeafIsolated(t *testing.T) {
	const S, L = 3, 3
	key := crypt.MustNewKey()
	tree := newTestTree(t, key, S, L)
	tree.ReplaceLeaf(1, failLeaf{})

	feeds := make([]*store.Requests, L)
	for f := 0; f < L; f++ {
		feeds[f] = store.NewRequests(50, testBlock)
		for i := 0; i < 50; i++ {
			feeds[f].SetRow(i, store.OpRead, uint64(1000*f+i), 0, uint64(i), uint64(f)<<32|uint64(i), nil)
		}
	}
	b, feedErrs, err := tree.MakeBatches(0, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if feedErrs == nil || feedErrs[1] == nil {
		t.Fatal("dead leaf produced no feed error")
	}
	if feedErrs[0] != nil || feedErrs[2] != nil {
		t.Fatalf("healthy feeds got errors: %v", feedErrs)
	}
	if b.All.Len() != b.PerSub*S {
		t.Fatalf("failure changed the public batch shape: %d rows", b.All.Len())
	}
	served := map[uint64]bool{}
	for i := 0; i < b.All.Len(); i++ {
		served[b.All.Key[i]] = true
	}
	for f := 0; f < L; f++ {
		for i := 0; i < 50; i++ {
			k := feeds[f].Key[i]
			if f == 1 && served[k] {
				t.Fatalf("dead feed's key %d reached the batches", k)
			}
			if f != 1 && !served[k] {
				t.Fatalf("healthy feed %d key %d missing from batches", f, k)
			}
		}
	}
	b.Release()

	// ResetLeaf is a complete repair: the next epoch serves all feeds.
	tree.ResetLeaf(1)
	b2, feedErrs2, err := tree.MakeBatches(1, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if feedErrs2 != nil {
		t.Fatalf("after ResetLeaf: %v", feedErrs2)
	}
	b2.Release()
}

// TestTreeValidation pins the public-configuration contract: fan-in caps the
// leaf count, and MakeBatches insists on exactly one snapshot per feed.
func TestTreeValidation(t *testing.T) {
	key := crypt.MustNewKey()
	if _, err := NewTree(TreeConfig{
		Config: Config{BlockSize: testBlock, NumSubORAMs: 2, Lambda: 32},
		Leaves: 8, FanIn: 4,
	}, key); err == nil {
		t.Fatal("8 leaves into fan-in 4 must be rejected")
	}
	tree := newTestTree(t, key, 2, 3)
	if tree.FanIn() != 3 {
		t.Fatalf("FanIn defaulted to %d, want Leaves=3", tree.FanIn())
	}
	if _, _, err := tree.MakeBatches(0, make([]*store.Requests, 2)); err == nil {
		t.Fatal("feed-count mismatch must be rejected")
	}
}

// TestTreeZeroAllocSteadyState is the tree's tentpole guard: with a warm
// arena, a full tree epoch — every leaf sort, the root merge, global dedupe,
// response matching — performs zero heap allocations at both levels.
// SortWorkers pinned to 1 as in the monolithic guard (goroutines allocate
// and are outside the data-plane guarantee); telemetry and its access-trace
// sink are wired in, the worst case.
func TestTreeZeroAllocSteadyState(t *testing.T) {
	pool := arena.NewPool()
	reg := telemetry.NewRegistry()
	reg.SetTrace(telemetry.NewTraceSink())
	key := crypt.MustNewKey()
	tree, err := NewTree(TreeConfig{
		Config: Config{BlockSize: 32, NumSubORAMs: 4, Lambda: 64, SortWorkers: 1, Pool: pool, Telemetry: reg},
		Leaves: 4,
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	feeds := make([]*store.Requests, 4)
	for f := range feeds {
		feeds[f] = store.NewRequests(64, 32)
		for i := 0; i < 64; i++ {
			feeds[f].SetRow(i, store.OpRead, rng.Uint64()%1000, 0, uint64(i), uint64(i), nil)
		}
	}
	warm := func() *store.Requests {
		b, feedErrs, err := tree.MakeBatches(7, feeds)
		if err != nil || feedErrs != nil {
			t.Fatal(err, feedErrs)
		}
		resp := b.All.Clone()
		b.Release()
		return resp
	}
	resp := warm()

	allocs := testing.AllocsPerRun(50, func() {
		b, feedErrs, err := tree.MakeBatches(7, feeds)
		if err != nil || feedErrs != nil {
			t.Fatal(err, feedErrs)
		}
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm tree MakeBatches allocated %.1f times per run, want 0", allocs)
	}

	m, err := tree.MatchResponses(7, resp, 0, feeds[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.PutRequests(m)
	allocs = testing.AllocsPerRun(50, func() {
		m, err := tree.MatchResponses(7, resp, 1, feeds[1])
		if err != nil {
			t.Fatal(err)
		}
		pool.PutRequests(m)
	})
	if allocs != 0 {
		t.Fatalf("warm tree MatchResponses allocated %.1f times per run, want 0", allocs)
	}
	if reg.Counter("lb_root_merges_total").Value() == 0 || reg.Counter("lb_leaf_runs_total").Value() == 0 {
		t.Fatal("tree telemetry not recording — guard is vacuous")
	}
}

// TestTreeLeafZeroAlloc guards the leaf level in isolation: BuildRun into a
// preallocated destination is allocation-free once the arena is warm.
func TestTreeLeafZeroAlloc(t *testing.T) {
	pool := arena.NewPool()
	key := crypt.MustNewKey()
	leaf := NewLeaf(Config{BlockSize: 32, NumSubORAMs: 4, Lambda: 64, SortWorkers: 1, Pool: pool}, key, 0)
	rng := rand.New(rand.NewSource(64))
	reqs := store.NewRequests(128, 32)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, store.OpRead, rng.Uint64()%500, 0, uint64(i), uint64(i), nil)
	}
	alpha := batch.Size(reqs.Len(), 4, 64)
	dst := store.NewRequests(alpha*4, 32)
	if _, err := leaf.BuildRun(0, reqs, alpha, 0, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := leaf.BuildRun(0, reqs, alpha, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm leaf BuildRun allocated %.1f times per run, want 0", allocs)
	}
}

// TestTreeRootWorkBelowMonolithic pins where the tree can shorten a plane's
// critical path: the root's oblivious row operations (TreeRootCost: merging
// the leaf runs, compacting the merge) against the monolithic balancer's
// whole build (MakeBatchesCost). Since the monolithic build sorts only its R real rows,
// the root undercuts it only at planner-scale rates and modest fan-in; at
// the -lbtree bench's R = 4096 it does not from two leaves on (logged, and
// reported by snoopy-bench -lbtree).
func TestTreeRootWorkBelowMonolithic(t *testing.T) {
	const lambda = 128
	rootOps := func(R, S, L int) (root, mono int) {
		rates := make([]int, L)
		for i := range rates {
			rates[i] = R / L
		}
		return TreeRootCost(rates, S, lambda), MakeBatchesCost(R, S, batch.Size(R, S, lambda))
	}
	for _, L := range []int{2, 4} {
		if root, mono := rootOps(1<<17, 8, L); root >= mono {
			t.Errorf("R=2^17 L=%d: root %d row ops ≥ monolithic build %d", L, root, mono)
		}
	}
	for _, L := range []int{1, 2, 4, 8} {
		root, mono := rootOps(4096, 4, L)
		t.Logf("R=4096 L=%d: root %d vs monolithic %d (%.0f%%)", L, root, mono, 100*float64(root)/float64(mono))
	}
}

// BenchmarkLBTree is the tentpole benchmark (scripts/bench.sh -lbtree):
// monolithic MakeBatches vs the full tree epoch at 1, 2, 4 and 8 leaves for
// the same aggregate rate, plus the root stage's isolated cost. SortWorkers
// is pinned to 1 so the numbers compare oblivious work, not scheduling.
func BenchmarkLBTree(b *testing.B) {
	const R, S = 4096, 4
	key := crypt.MustNewKey()
	rng := rand.New(rand.NewSource(65))
	all := store.NewRequests(R, 32)
	for i := 0; i < R; i++ {
		all.SetRow(i, store.OpRead, rng.Uint64()%uint64(4*R), 0, uint64(i), uint64(i), nil)
	}

	b.Run("monolithic", func(b *testing.B) {
		pool := arena.NewPool()
		lb := New(Config{BlockSize: 32, NumSubORAMs: S, Lambda: 128, SortWorkers: 1, Pool: pool}, key)
		bb, err := lb.MakeBatches(all)
		if err != nil {
			b.Fatal(err)
		}
		bb.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb, err := lb.MakeBatches(all)
			if err != nil {
				b.Fatal(err)
			}
			bb.Release()
		}
	})
	for _, leaves := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tree-%d", leaves), func(b *testing.B) {
			pool := arena.NewPool()
			tree, err := NewTree(TreeConfig{
				Config: Config{BlockSize: 32, NumSubORAMs: S, Lambda: 128, SortWorkers: 1, Pool: pool},
				Leaves: leaves,
			}, key)
			if err != nil {
				b.Fatal(err)
			}
			feeds := splitFeeds(all, leaves)
			bb, feedErrs, err := tree.MakeBatches(0, feeds)
			if err != nil || feedErrs != nil {
				b.Fatal(err, feedErrs)
			}
			bb.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb, _, err := tree.MakeBatches(uint64(i), feeds)
				if err != nil {
					b.Fatal(err)
				}
				bb.Release()
			}
		})
	}
}
