package loadbalancer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
	"snoopy/internal/wirecode"
)

// refBuildRun is the pad-and-sort run construction this package used before
// obliv.Distribute: append α dummies per subORAM to the real rows, sort all
// R + α·S of them, keep the first α distinct keys per subORAM, compact,
// truncate. Kept verbatim as the specification MakeBatches must reproduce
// byte for byte.
func refBuildRun(lb *LoadBalancer, reqs *store.Requests, alpha int) (*store.Requests, []uint64) {
	n := reqs.Len()
	s := lb.cfg.NumSubORAMs
	work := store.NewRequests(n+alpha*s, lb.cfg.BlockSize)
	for i := 0; i < n; i++ {
		work.CopyRowPlain(i, reqs, i)
		work.Sub[i] = uint32(lb.SubORAMFor(work.Key[i]))
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

// TestBuildRunMatchesPadAndSortReference: MakeBatches emits batch sets
// byte-identical to the pad-and-sort construction's — same occupied slots,
// same last-write-wins representatives, same dummy-key numbering — across
// the size edges and random epochs. The batches are a function of the
// requests, the key, S and λ alone: at 4 sort workers, and from a second
// load balancer over the same key, they are the same bytes. A root journal's
// replay rebuilds an epoch's batches on that.
func TestBuildRunMatchesPadAndSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const S = 4
	cfg := Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}
	key := crypt.MustNewKey()
	lb := New(cfg, key)
	parallel := cfg
	parallel.SortWorkers = 4
	twins := []*LoadBalancer{New(parallel, key), New(cfg, key)}

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
		want, wantDropped := refBuildRun(lb, reqs, b.PerSub)
		sameRows(t, fmt.Sprintf("R=%d", n), b.All, want)
		if !reflect.DeepEqual(b.DroppedKeys, wantDropped) {
			t.Fatalf("R=%d: dropped %v, reference %v", n, b.DroppedKeys, wantDropped)
		}
		for k, twin := range twins {
			tb, err := twin.MakeBatches(reqs)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("R=%d, twin %d", n, k), tb.All, b.All)
			if tb.PerSub != b.PerSub || !reflect.DeepEqual(tb.DroppedKeys, b.DroppedKeys) {
				t.Fatalf("R=%d, twin %d: α %d dropped %v, first load balancer α %d dropped %v",
					n, k, tb.PerSub, tb.DroppedKeys, b.PerSub, b.DroppedKeys)
			}
			tb.Release()
		}
		b.Release()
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
		want, _ := refBuildRun(lb, reqs, alpha)
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

// byKeyTag is the order refMatchResponses sorts the union by: key, then
// responses (Tag=0) before the requests (Tag=1) they answer.
type byKeyTag struct{ *store.Requests }

func (s byKeyTag) GreaterRun(g []uint8, i, j int) {
	r := s.Requests
	for t := range g {
		keyGt := obliv.GtU64(r.Key[i+t], r.Key[j+t])
		keyEq := obliv.EqU64(r.Key[i+t], r.Key[j+t])
		tagGt := obliv.GtU64(uint64(r.Tag[i+t]), uint64(r.Tag[j+t]))
		g[t] = obliv.Or(keyGt, obliv.And(keyEq, tagGt))
	}
}

// refMatchResponses is the sort-based matching this package used before the
// merge: concatenate responses and requests, sort all R + α·S rows by
// (key, tag), propagate, compact. It reads no order stamp and needs no
// order, which is what makes it the specification MatchResponses must
// answer like.
func refMatchResponses(responses, reqs *store.Requests) *store.Requests {
	x := store.Concat(responses, reqs)
	for i := range x.Tag {
		x.Tag[i] = 0
		if i >= responses.Len() {
			x.Tag[i] = 1
		}
	}
	obliv.Sort(byKeyTag{x})
	prevKey := ^uint64(0)
	var prevFound uint8
	prevData := make([]byte, x.BlockSize)
	for i := 0; i < x.Len(); i++ {
		isResp := obliv.Not(x.Tag[i])
		obliv.CondSetU64(isResp, &prevKey, x.Key[i])
		obliv.CondSetU8(isResp, &prevFound, x.Aux[i])
		obliv.CondCopyBytes(isResp, prevData, x.Block(i))
		match := x.Tag[i] & obliv.EqU64(x.Key[i], prevKey)
		obliv.CondCopyBytes(match, x.Block(i), prevData)
		obliv.CondSetU8(match, &x.Aux[i], prevFound)
	}
	marks := append([]uint8(nil), x.Tag...)
	obliv.Compact(x, marks)
	x.Resize(reqs.Len())
	return x
}

// answer plays a subORAM on one α-row batch: every third real key is absent
// (zero block, Aux 0, like dummies), the rest answer with a value derived
// from the key; rows come back ascending by (bucket of key under k among b1,
// key) and stamped so — b1 = 1 is plain key order.
func answer(batch *store.Requests, k crypt.SipKey, b1 int) *store.Requests {
	out := batch.Clone()
	for i := 0; i < out.Len(); i++ {
		blk := out.Block(i)
		clear(blk)
		out.Aux[i] = 0
		if key := out.Key[i]; !store.IsDummyKey(key) && key%3 != 0 {
			out.Aux[i] = 1
			for j := range blk {
				blk[j] = byte(key) + byte(j)
			}
		}
	}
	idx := make([]int, out.Len())
	for i := range idx {
		idx[i] = i
	}
	bucket := func(i int) uint32 { return crypt.SipBucket(k, out.Key[i], b1) }
	sort.Slice(idx, func(a, b int) bool {
		if ba, bb := bucket(idx[a]), bucket(idx[b]); ba != bb {
			return ba < bb
		}
		return out.Key[idx[a]] < out.Key[idx[b]]
	})
	sorted := store.NewRequests(out.Len(), out.BlockSize)
	for i, j := range idx {
		sorted.CopyRowPlain(i, out, j)
	}
	sorted.StampOrder(k, b1)
	return sorted
}

// blankRange is what core's stage C puts in a failed partition's range.
func blankRange(responses *store.Requests, p, alpha int) {
	v := responses.View(p*alpha, (p+1)*alpha)
	v.Reset()
	for j := range v.Key {
		v.Key[j] = store.DummyKeyBit | uint64(p)<<32 | uint64(j)
	}
	v.StampKeyOrder()
}

// sameReplies fails unless got and want answer every request of reqs alike:
// as a map Client → (Key, Op, Seq, Data, Aux), row order being unspecified.
// A request whose key no response row carries (a Theorem-3 victim, a failed
// partition) comes back zeroed with Aux 0, where the reference echoed the
// request's own block; core fails those requests either way.
func sameReplies(t *testing.T, what string, got, want, responses, reqs *store.Requests) {
	t.Helper()
	if got.Len() != reqs.Len() || want.Len() != reqs.Len() {
		t.Fatalf("%s: %d rows, reference %d, want %d", what, got.Len(), want.Len(), reqs.Len())
	}
	answered := make(map[uint64]bool, responses.Len())
	for _, k := range responses.Key {
		answered[k] = true
	}
	type reply struct {
		key, seq uint64
		op, aux  uint8
		data     string
	}
	collect := func(x *store.Requests, zeroUnanswered bool) map[uint64]reply {
		m := make(map[uint64]reply, x.Len())
		for i := 0; i < x.Len(); i++ {
			r := reply{x.Key[i], x.Seq[i], x.Op[i], x.Aux[i], string(x.Block(i))}
			if zeroUnanswered && !answered[r.key] {
				r.aux, r.data = 0, string(make([]byte, x.BlockSize))
			}
			if _, dup := m[x.Client[i]]; dup {
				t.Fatalf("%s: client cookie %d answered twice", what, x.Client[i])
			}
			m[x.Client[i]] = r
		}
		return m
	}
	g, w := collect(got, false), collect(want, true)
	for i := 0; i < reqs.Len(); i++ {
		c := reqs.Client[i]
		if g[c] != w[c] {
			t.Fatalf("%s: client %d (key %#x): got key=%#x op=%d seq=%d aux=%d data=%x\nreference key=%#x op=%d seq=%d aux=%d data=%x",
				what, c, reqs.Key[i], g[c].key, g[c].op, g[c].seq, g[c].aux, g[c].data,
				w[c].key, w[c].op, w[c].seq, w[c].aux, w[c].data)
		}
		if g[c].key != reqs.Key[i] || g[c].op != reqs.Op[i] || g[c].seq != reqs.Seq[i] {
			t.Fatalf("%s: client %d came back as another request", what, c)
		}
	}
}

// matchReqs draws n requests over a keyspace in one of the traffic shapes
// the differential runs: cookies are distinct, Aux is clear (as core's are).
func matchReqs(rng *rand.Rand, n int, shape string) *store.Requests {
	reqs := store.NewRequests(n, testBlock)
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<12)
	for i := 0; i < n; i++ {
		op, key := uint8(rng.Intn(2)), uint64(rng.Intn(1+n/2))
		switch shape {
		case "duplicates":
			key = 7
		case "distinct":
			key = uint64(i)*5 + 1
		case "zipf":
			key = zipf.Uint64()
		case "writes":
			op = store.OpWrite
		case "absent":
			key = uint64(rng.Intn(1+n)) * 3
		}
		reqs.SetRow(i, op, key, 0, uint64(i), uint64(5000+i), nil)
		rng.Read(reqs.Block(i))
	}
	return reqs
}

// TestMatchResponsesMatchesSortReference: over the size edges, S, every
// traffic shape, and response batches in key order, in table order and in a
// different order per partition, the merge answers every request as the
// sort-based reference does.
func TestMatchResponsesMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, S := range []int{1, 2, 4} {
		cfg := Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}
		lb := New(cfg, crypt.MustNewKey())
		sizes := []int{0, 1, 2, 2048}
		for _, r := range []int{128, 512} {
			a := batch.Size(r, S, cfg.Lambda)
			sizes = append(sizes, a-1, a)
		}
		for _, n := range sizes {
			for _, shape := range []string{"mixed", "duplicates", "distinct", "zipf", "writes", "absent"} {
				reqs := matchReqs(rng, n, shape)
				b, err := lb.MakeBatches(reqs)
				if err != nil {
					t.Fatal(err)
				}
				for _, order := range []string{"key", "table", "per-partition"} {
					responses := store.NewRequests(b.All.Len(), testBlock)
					for p := 0; p < S; p++ {
						k, b1 := crypt.SipKey{}, 1
						if order == "table" || (order == "per-partition" && p%2 == 1) {
							k, b1 = crypt.MustNewSipKey(), (b.PerSub+3)/4+p // B1 differs by partition
						}
						responses.CopyRowsPlain(p*b.PerSub, answer(b.For(p), k, b1))
					}
					got, err := lb.MatchResponses(responses, reqs)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("S=%d R=%d %s, %s order", S, n, shape, order)
					sameReplies(t, what, got, refMatchResponses(responses, reqs), responses, reqs)
				}
				b.Release()
			}
		}
	}
}

// TestMatchResponsesDegradedEpochs: Theorem-3 victims (α+1 distinct keys
// into one partition) and a failed partition's blank range leave exactly
// those requests unanswered — zeroed, Aux 0 — and every other request
// answered as the reference answers it.
func TestMatchResponsesDegradedEpochs(t *testing.T) {
	const S, R = 4, 400
	rng := rand.New(rand.NewSource(82))
	lb := New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}, crypt.MustNewKey())
	alpha := lb.BatchSize(R)
	var hot []uint64 // α+1 distinct keys of partition 2
	for k := uint64(1); len(hot) < alpha+1; k++ {
		if lb.SubORAMFor(k) == 2 {
			hot = append(hot, k)
		}
	}
	reqs := matchReqs(rng, R, "mixed")
	for i, k := range hot {
		reqs.Key[i] = k
	}
	b, err := lb.MakeBatches(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dropped != 1 {
		t.Fatalf("dropped %d, want the one Theorem-3 victim", b.Dropped)
	}
	for _, failed := range []int{-1, 0, 2} {
		responses := store.NewRequests(b.All.Len(), testBlock)
		for p := 0; p < S; p++ {
			responses.CopyRowsPlain(p*alpha, answer(b.For(p), crypt.MustNewSipKey(), (alpha+3)/4))
		}
		if failed >= 0 {
			blankRange(responses, failed, alpha)
		}
		got, err := lb.MatchResponses(responses, reqs)
		if err != nil {
			t.Fatal(err)
		}
		sameReplies(t, fmt.Sprintf("failed partition %d", failed), got, refMatchResponses(responses, reqs), responses, reqs)
		zero := make([]byte, testBlock)
		for i := 0; i < got.Len(); i++ {
			victim := got.Key[i] == b.DroppedKeys[0] || lb.SubORAMFor(got.Key[i]) == failed
			if victim && (got.Aux[i] != 0 || !bytes.Equal(got.Block(i), zero)) {
				t.Fatalf("failed=%d: unanswerable key %d came back aux=%d data=%x", failed, got.Key[i], got.Aux[i], got.Block(i))
			}
		}
	}
	b.Release()
}

// TestMatchResponsesRealSubORAMs runs the differential against real
// subORAMs — under pinned and under fresh hash keys — with three load
// balancers whose epochs share keys, and with a strict subset of the plane's
// requests matched against the whole response set.
func TestMatchResponsesRealSubORAMs(t *testing.T) {
	const S, L, objects = 3, 3, 2048
	pinned := &crypt.SipKey{1, 2}
	for _, keys := range []*crypt.SipKey{pinned, nil} {
		rng := rand.New(rand.NewSource(83))
		key := crypt.MustNewKey()
		lbs := make([]*LoadBalancer, L)
		for i := range lbs {
			lbs[i] = New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}, key)
		}
		ids := make([]uint64, objects)
		data := make([]byte, objects*testBlock)
		for i := range ids {
			ids[i] = uint64(i)
		}
		rng.Read(data)
		pids, pdata, _ := lbs[0].Partition(ids, data)
		subs := make([]*suboram.SubORAM, S)
		for p := range subs {
			subs[p] = suboram.New(suboram.Config{BlockSize: testBlock, TestHashKey: keys})
			if err := subs[p].Init(pids[p], pdata[p]); err != nil {
				t.Fatal(err)
			}
		}
		for epoch := 0; epoch < 4; epoch++ {
			for i := 0; i < L; i++ { // fixed load-balancer order; same keys across planes
				reqs := matchReqs(rng, 300+50*i, "mixed")
				b, err := lbs[i].MakeBatches(reqs)
				if err != nil {
					t.Fatal(err)
				}
				responses := store.NewRequests(b.All.Len(), testBlock)
				for p := 0; p < S; p++ {
					out, err := subs[p].BatchAccess(b.For(p))
					if err != nil {
						t.Fatal(err)
					}
					responses.CopyRowsPlain(p*b.PerSub, out)
				}
				b.Release()
				what := fmt.Sprintf("pinned=%v epoch %d lb %d", keys != nil, epoch, i)
				got, err := lbs[i].MatchResponses(responses, reqs)
				if err != nil {
					t.Fatal(err)
				}
				sameReplies(t, what, got, refMatchResponses(responses, reqs), responses, reqs)
				for j := 0; j < got.Len(); j++ {
					if got.Aux[j] != 1 {
						t.Fatalf("%s: stored key %d not found", what, got.Key[j])
					}
				}

				subset := store.NewRequests(reqs.Len()/3, testBlock)
				for j := 0; j < subset.Len(); j++ {
					subset.CopyRowPlain(j, reqs, 3*j)
				}
				got, err = lbs[i].MatchResponses(responses, subset)
				if err != nil {
					t.Fatal(err)
				}
				sameReplies(t, what+" subset", got, refMatchResponses(responses, subset), responses, subset)
			}
		}
	}
}

// TestMatchResponsesTraceIsPublic: the Rec trace of MatchResponses is a
// function of (R, α, S) alone — request contents, response contents, the
// partitions' table keys and their bucket counts all vary, the trace does
// not.
func TestMatchResponsesTraceIsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	const S, R = 4, 300
	var first *trace.Recorder
	for trial := 0; trial < 4; trial++ {
		rec := trace.New()
		cfg := Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}
		key := crypt.MustNewKey()
		builder := New(cfg, key)
		cfg.Rec = rec
		lb := New(cfg, key)
		reqs := matchReqs(rng, R, []string{"mixed", "duplicates", "distinct", "writes"}[trial])
		b, err := builder.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		responses := store.NewRequests(b.All.Len(), testBlock)
		for p := 0; p < S; p++ {
			responses.CopyRowsPlain(p*b.PerSub, answer(b.For(p), crypt.MustNewSipKey(), 1+rng.Intn(b.PerSub)))
		}
		b.Release()
		if _, err := lb.MatchResponses(responses, reqs); err != nil {
			t.Fatal(err)
		}
		if rec.Count() == 0 {
			t.Fatal("recorder captured nothing")
		}
		if first == nil {
			first = rec
		} else if !trace.Equal(first, rec) {
			t.Fatalf("trial %d: MatchResponses trace depends on secrets (%d vs %d events)", trial, rec.Count(), first.Count())
		}
	}
}

// TestMatchResponsesRejectsMisshapenResponses: a response set that is not
// one α-row batch per subORAM is an error, not a mismatch.
func TestMatchResponsesRejectsMisshapenResponses(t *testing.T) {
	lb := newLB(t, 4)
	reqs := matchReqs(rand.New(rand.NewSource(85)), 10, "mixed")
	for _, rows := range []int{0, 3, 9} {
		if _, err := lb.MatchResponses(store.NewRequests(rows, testBlock), reqs); err == nil {
			t.Fatalf("%d response rows for 4 subORAMs: no error", rows)
		}
	}
}
