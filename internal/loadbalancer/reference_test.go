package loadbalancer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
	"snoopy/internal/wirecode"
)

// refBuildRun is the pad-and-sort run construction this package used before
// obliv.Distribute: append α dummies per subORAM to the real rows, sort all
// R + α·S of them — in table order under partition s's key keys[s] — keep
// the first α distinct keys per subORAM, compact, truncate, stamp each
// batch with its key. Kept as the specification MakeBatches must reproduce
// byte for byte.
func refBuildRun(lb *LoadBalancer, reqs *store.Requests, alpha int, keys []crypt.SipKey) (*store.Requests, []uint64) {
	n := reqs.Len()
	s := lb.cfg.NumSubORAMs
	work := store.NewRequests(n+alpha*s, lb.cfg.BlockSize)
	rank := make([]uint64, work.Len())
	for i := 0; i < n; i++ {
		work.CopyRowPlain(i, reqs, i)
		sub := lb.SubORAMFor(work.Key[i])
		work.Sub[i] = uint32(sub)
		rank[i] = ohash.Rank(sub, ohash.Hash(keys[sub], work.Key[i]))
	}
	d := n
	for sub := 0; sub < s; sub++ {
		for j := 0; j < alpha; j++ {
			key := store.DummyKeyBit | uint64(sub)<<32 | uint64(j)
			work.SetRow(d, store.OpRead, key, uint32(sub), 0, 0, nil)
			rank[d] = ohash.DummyRank(sub)
			d++
		}
	}
	obliv.Sort(store.ByRank{Requests: work, Rank: rank})
	keep := make([]uint8, work.Len())
	drop := make([]uint8, work.Len())
	_, droppedKeys := dedupeKeep(work, alpha, keep, drop)
	obliv.Compact(work, keep)
	work.Resize(alpha * s)
	for p := 0; p < s; p++ {
		work.View(p*alpha, (p+1)*alpha).StampKey(keys[p])
	}
	return work, droppedKeys
}

// keysOf returns the keys b's batches were stamped with.
func keysOf(b *Batches, s int) []crypt.SipKey {
	keys := make([]crypt.SipKey, s)
	for p := range keys {
		keys[p] = b.Match.Key(p)
	}
	return keys
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
// same last-write-wins representatives, same dummy-key numbering, same
// stamps — across the size edges and random epochs. The batches are a
// function of the requests, the routing key, the table-key secret, the
// plane, the epoch, S and λ alone: at 4 sort workers, and from a second
// load balancer over the same keys, they are the same bytes. A root
// journal's replay rebuilds an epoch's batches on that.
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
	secret := crypt.MustNewKey()
	for e, n := range sizes {
		reqs := epochReqs(rng, n, 1+n/2)

		b, err := lb.MakeEpochBatches(reqs, secret, 1, uint64(e))
		if err != nil {
			t.Fatal(err)
		}
		want, wantDropped := refBuildRun(lb, reqs, b.PerSub, keysOf(b, S))
		sameRows(t, fmt.Sprintf("R=%d", n), b.All, want)
		if !reflect.DeepEqual(b.DroppedKeys, wantDropped) {
			t.Fatalf("R=%d: dropped %v, reference %v", n, b.DroppedKeys, wantDropped)
		}
		for k, twin := range twins {
			tb, err := twin.MakeEpochBatches(reqs, secret, 1, uint64(e))
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
// all real rows, no dummies); one more drops exactly one request — the last
// in table order, since a batch keeps its α first — and reports it.
func TestMakeBatchesTheorem3Boundary(t *testing.T) {
	const S, R = 4, 400
	lb := New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}, crypt.MustNewKey())
	alpha := lb.BatchSize(R)
	if alpha+1 >= R {
		t.Fatalf("test needs α+1 < R, α=%d", alpha)
	}
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
		k2 := b.Match.Key(2)
		inOrder := append([]uint64(nil), keys[2][:hot]...)
		sort.Slice(inOrder, func(i, j int) bool {
			hi, hj := ohash.Hash(k2, inOrder[i]), ohash.Hash(k2, inOrder[j])
			return hi < hj || hi == hj && inOrder[i] < inOrder[j]
		})
		if extra == 1 && b.DroppedKeys[0] != inOrder[alpha] {
			t.Fatalf("victim %d, want the last key in table order %d", b.DroppedKeys[0], inOrder[alpha])
		}
		part := b.For(2)
		for i := 0; i < alpha; i++ {
			if part.Key[i] != inOrder[i] {
				t.Fatalf("subORAM 2 slot %d holds %#x, want key %d", i, part.Key[i], inOrder[i])
			}
		}
		want, _ := refBuildRun(lb, reqs, alpha, keysOf(b, S))
		sameRows(t, "boundary batches", b.All, want)
		b.Release()
	}
}

// TestCostFunctionsCountTheEpoch pins MakeBatchesCost/MatchResponsesCost to
// the implementation: the recorder sees exactly that many row swaps, plus
// the linear passes (dedupe touch and clear per request, one touch per
// batch slot; one propagation touch per matched row). Match sorts nothing;
// MatchResponses, matching requests batched elsewhere, adds the narrow sort
// of their metadata.
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
		if got, want := rec.Count()-before, uint64(obliv.SortCost(sh.r)+MatchResponsesCost(sh.r, sh.s, b.PerSub)+rows); got != want {
			t.Fatalf("R=%d S=%d: MatchResponses recorded %d events, sort+cost+linear says %d", sh.r, sh.s, got, want)
		}
		before = rec.Count()
		m := b.Match
		b.Match = nil
		if _, err := lb.Match(m, b.All); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Count()-before, uint64(MatchResponsesCost(sh.r, sh.s, b.PerSub)+rows); got != want {
			t.Fatalf("R=%d S=%d: Match recorded %d events, cost+linear says %d", sh.r, sh.s, got, want)
		}
	}
}

// TestEngineRowOpsAtBatchHeavy pins the cost functions at batch_heavy's
// shape — R = 2 048 over S = 4 partitions of N = 512 objects, α = 845 — on
// the engine path (MakeBatches, every partition's build and extraction,
// Match). Before the load balancer sent its batches in table order the
// epoch cost 382 K wide row operations and 67 584 narrow ones (the match's
// metadata sort); no narrow operation is left, and the wide ones are the
// ones that remain after four tier-1 sorts of 845 rows went.
func TestEngineRowOpsAtBatchHeavy(t *testing.T) {
	const R, S, N = 2048, 4, 512
	alpha := batch.Size(R, S, 128)
	if alpha != 845 {
		t.Fatalf("α = %d at batch_heavy's shape, want 845", alpha)
	}
	g := ohash.GeometryFor(alpha, N, 128)
	wide := MakeBatchesCost(R, S, alpha) + S*(g.BuildCost()+g.ExtractCost()) + MatchResponsesCost(R, S, alpha)
	if before := wide + S*obliv.SortCost(alpha); before < 380_000 || before > 384_000 {
		t.Fatalf("the construction before: %d wide row operations, recorded as 382 K", before)
	}
	if obliv.SortCost(R) != 67_584 {
		t.Fatalf("the match's old metadata sort: %d narrow row operations, recorded as 67 584", obliv.SortCost(R))
	}
	if wide > 300_000 {
		t.Fatalf("%d wide row operations an epoch, want at most 300 K", wide)
	}
	t.Logf("batch_heavy: %d wide row operations an epoch (was %d), 0 narrow (was %d)", wide, wide+S*obliv.SortCost(alpha), obliv.SortCost(R))
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
// (key, tag), propagate, compact. It reads no key and needs no order, which
// is what makes it the specification Match and MatchResponses must answer
// like.
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
// from the key; rows come back in the order received, echoing the batch's
// key, with vacant rows where the batch had its dummies.
func answer(batch *store.Requests) *store.Requests {
	out := batch.Clone()
	for i := 0; i < out.Len(); i++ {
		blk := out.Block(i)
		clear(blk)
		out.Aux[i] = 0
		if key := out.Key[i]; store.IsDummyKey(key) {
			out.Key[i] = store.DummyKeyBit | ohash.TableDummyBit
		} else if key%3 != 0 {
			out.Aux[i] = 1
			for j := range blk {
				blk[j] = byte(key) + byte(j)
			}
		}
	}
	return out
}

// answerAll plays every partition of b.
func answerAll(b *Batches, s int) *store.Requests {
	responses := store.NewRequests(b.All.Len(), testBlock)
	for p := 0; p < s; p++ {
		responses.CopyRowsPlain(p*b.PerSub, answer(b.For(p)))
	}
	return responses
}

// blankRange is what core's stage C puts in a failed partition's range.
func blankRange(responses *store.Requests, p, alpha int, k crypt.SipKey) {
	v := responses.View(p*alpha, (p+1)*alpha)
	v.Reset()
	for j := range v.Key {
		v.Key[j] = store.DummyKeyBit | uint64(p)<<32 | uint64(j)
	}
	v.StampKey(k)
}

// matchBoth matches responses to b's epoch both ways — Match over the
// match data MakeBatches kept, and MatchResponses over reqs, sorting their
// metadata under the echoed keys — requires the two byte-identical, and
// returns Match's answer. It consumes b's match data.
func matchBoth(t *testing.T, what string, lb *LoadBalancer, b *Batches, responses, reqs *store.Requests) *store.Requests {
	t.Helper()
	sorted, err := lb.MatchResponses(responses, reqs)
	if err != nil {
		t.Fatalf("%s: MatchResponses: %v", what, err)
	}
	m := b.Match
	b.Match = nil
	got, err := lb.Match(m, responses)
	if err != nil {
		t.Fatalf("%s: Match: %v", what, err)
	}
	sameRows(t, what+": Match against MatchResponses", got, sorted)
	return got
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

// TestMatchResponsesMatchesSortReference: over the size edges, S, λ and
// every traffic shape, the merge answers every request as the sort-based
// reference does, whether it matches over the match data MakeBatches kept
// or sorts the requests' metadata itself — the two byte for byte alike.
func TestMatchResponsesMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, S := range []int{1, 2, 4} {
		for _, lambda := range []int{32, 128} {
			cfg := Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: lambda, SortWorkers: 1}
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
					responses := answerAll(b, S)
					what := fmt.Sprintf("S=%d λ=%d R=%d %s", S, lambda, n, shape)
					got := matchBoth(t, what, lb, b, responses, reqs)
					sameReplies(t, what, got, refMatchResponses(responses, reqs), responses, reqs)
					b.Release()
				}
			}
		}
	}
}

// TestMatchRefusesAnotherKey is the echo check's negative control: a
// partition that answers a row, or its whole range, under a key other than
// the one its batch was sent with fails the match closed. MatchResponses
// takes each partition's key from its first row, so a row that disagrees
// with it fails there too.
func TestMatchRefusesAnotherKey(t *testing.T) {
	const S = 3
	rng := rand.New(rand.NewSource(86))
	lb := New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1}, crypt.MustNewKey())
	reqs := matchReqs(rng, 200, "mixed")
	for _, c := range []struct {
		name   string
		mangle func(r *store.Requests, alpha int)
		sorted bool // MatchResponses must refuse it as well
	}{
		{"one row", func(r *store.Requests, alpha int) { r.Seq[alpha+3]++ }, true},
		{"a whole range", func(r *store.Requests, alpha int) { r.View(2*alpha, 3*alpha).StampKey(crypt.MustNewSipKey()) }, false},
	} {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		responses := answerAll(b, S)
		c.mangle(responses, b.PerSub)
		if _, err := lb.Match(b.Match, responses); !errors.Is(err, ErrKeyEcho) {
			t.Fatalf("%s: Match says %v, want ErrKeyEcho", c.name, err)
		}
		b.Match = nil
		if _, err := lb.MatchResponses(responses, reqs); c.sorted && !errors.Is(err, ErrKeyEcho) {
			t.Fatalf("%s: MatchResponses says %v, want ErrKeyEcho", c.name, err)
		}
		b.Release()
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
	for _, failed := range []int{-1, 0, 2} {
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if b.Dropped != 1 {
			t.Fatalf("dropped %d, want the one Theorem-3 victim", b.Dropped)
		}
		responses := answerAll(b, S)
		if failed >= 0 {
			blankRange(responses, failed, alpha, b.Match.Key(failed))
		}
		what := fmt.Sprintf("failed partition %d", failed)
		got := matchBoth(t, what, lb, b, responses, reqs)
		sameReplies(t, what, got, refMatchResponses(responses, reqs), responses, reqs)
		zero := make([]byte, testBlock)
		for i := 0; i < got.Len(); i++ {
			victim := got.Key[i] == b.DroppedKeys[0] || lb.SubORAMFor(got.Key[i]) == failed
			if victim && (got.Aux[i] != 0 || !bytes.Equal(got.Block(i), zero)) {
				t.Fatalf("failed=%d: unanswerable key %d came back aux=%d data=%x", failed, got.Key[i], got.Aux[i], got.Block(i))
			}
		}
		b.Release()
	}
}

// TestMatchResponsesRealSubORAMs runs the differential against real
// subORAMs, which build from the batches' own order and answer in it, with
// three load balancers whose epochs share one secret, and with a strict
// subset of the plane's requests matched against the whole response set.
func TestMatchResponsesRealSubORAMs(t *testing.T) {
	const S, L, objects = 3, 3, 2048
	rng := rand.New(rand.NewSource(83))
	key, secret := crypt.MustNewKey(), crypt.MustNewKey()
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
		subs[p] = suboram.New(suboram.Config{BlockSize: testBlock})
		if err := subs[p].Init(pids[p], pdata[p]); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		for i := 0; i < L; i++ { // fixed load-balancer order
			reqs := matchReqs(rng, 300+50*i, "mixed")
			b, err := lbs[i].MakeEpochBatches(reqs, secret, i, epoch)
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
			what := fmt.Sprintf("epoch %d lb %d", epoch, i)
			got := matchBoth(t, what, lbs[i], b, responses, reqs)
			b.Release()
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

// TestMatchResponsesTraceIsPublic: the Rec traces of MakeBatches followed by
// Match, and of MatchResponses, are functions of (R, α, S) alone — request
// contents, response contents and the partitions' table keys all vary, the
// traces do not.
func TestMatchResponsesTraceIsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	const S, R = 4, 300
	var first [2]*trace.Recorder
	for trial := 0; trial < 4; trial++ {
		var recs [2]*trace.Recorder
		for way := range recs {
			rec := trace.New()
			lb := New(Config{BlockSize: testBlock, NumSubORAMs: S, Lambda: 32, SortWorkers: 1, Rec: rec}, crypt.MustNewKey())
			reqs := matchReqs(rng, R, []string{"mixed", "duplicates", "distinct", "writes"}[trial])
			b, err := lb.MakeBatches(reqs)
			if err != nil {
				t.Fatal(err)
			}
			responses := answerAll(b, S)
			if way == 0 {
				_, err = lb.Match(b.Match, responses)
			} else {
				_, err = lb.MatchResponses(responses, reqs)
				b.Match.Release()
			}
			b.Match = nil
			b.Release()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() == 0 {
				t.Fatal("recorder captured nothing")
			}
			recs[way] = rec
		}
		for way, rec := range recs {
			if first[way] == nil {
				first[way] = rec
			} else if !trace.Equal(first[way], rec) {
				t.Fatalf("trial %d way %d: matching trace depends on secrets (%d vs %d events)", trial, way, rec.Count(), first[way].Count())
			}
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
		b, err := lb.MakeBatches(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lb.Match(b.Match, store.NewRequests(rows, testBlock)); err == nil {
			t.Fatalf("%d response rows for 4 subORAMs: Match says no error", rows)
		}
		b.Match = nil
		b.Release()
	}
}
