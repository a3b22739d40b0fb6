package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snoopy/internal/obliv"
	"snoopy/internal/trace"
)

// The per-pair construction the run-level networks replaced, kept verbatim as
// the oracle: each network visits its pairs one at a time, asks the ordering
// for one condition (Greater, Target) and the row set for one exchange
// (OSwap). Same network, same order — so the run-level path must leave the
// same rows and record the same swap trace.

type pairSwapper interface {
	Len() int
	OSwap(c uint8, i, j int)
}

type pairSorter interface {
	pairSwapper
	Greater(i, j int) uint8
}

type pairRouter interface {
	pairSwapper
	Target(i int) uint64
}

func refSort(s pairSorter) { refBitonicSort(s, 0, s.Len(), true) }

func refBitonicSort(s pairSorter, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	m := n / 2
	refBitonicSort(s, lo, m, !up)
	refBitonicSort(s, lo+m, n-m, up)
	refBitonicMerge(s, lo, n, up)
}

func refBitonicMerge(s pairSorter, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	m := pow2Below(n)
	for i := lo; i < lo+n-m; i++ {
		var dir uint8
		if up {
			dir = 1
		}
		s.OSwap(s.Greater(i, i+m)^dir^1, i, i+m)
	}
	refBitonicMerge(s, lo, m, up)
	refBitonicMerge(s, lo+m, n-m, up)
}

func pow2Below(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k >> 1
}

func refMergeSorted(s pairSorter, runs []int) { refMergeRuns(s, 0, runs) }

func refMergeRuns(s pairSorter, lo int, runs []int) int {
	switch len(runs) {
	case 0:
		return 0
	case 1:
		return runs[0]
	}
	h := len(runs) / 2
	a := refMergeRuns(s, lo, runs[:h])
	b := refMergeRuns(s, lo+a, runs[h:])
	if a > 0 && b > 0 {
		for i := 0; i < a/2; i++ {
			s.OSwap(1, lo+i, lo+a-1-i)
		}
		refBitonicMerge(s, lo, a+b, true)
	}
	return a + b
}

func refCompact(s pairSwapper, marks []uint8) { refORCompact(s, marks, 0, s.Len()) }

func refORCompact(s pairSwapper, marks []uint8, lo, n int) {
	if n < 2 {
		return
	}
	n1 := pow2Below(n + 1)
	if n1 == n {
		refOROffCompact(s, marks, lo, n, 0)
		return
	}
	n2 := n - n1
	m := 0
	for i := lo; i < lo+n2; i++ {
		m += int(marks[i])
	}
	refORCompact(s, marks, lo, n2)
	refOROffCompact(s, marks, lo+n2, n1, (n1-n2+m)%n1)
	for i := 0; i < n2; i++ {
		s.OSwap(obliv.GeU64(uint64(i), uint64(m)), lo+i, lo+i+n1)
	}
}

func refOROffCompact(s pairSwapper, marks []uint8, lo, n, z int) {
	if n < 2 {
		return
	}
	if n == 2 {
		s.OSwap(((1-marks[lo])&marks[lo+1])^uint8(z&1), lo, lo+1)
		return
	}
	h := n / 2
	m := 0
	for i := lo; i < lo+h; i++ {
		m += int(marks[i])
	}
	refOROffCompact(s, marks, lo, h, z%h)
	refOROffCompact(s, marks, lo+h, h, (z+m)%h)
	zm, zpm := uint64(z%h), uint64((z+m)%h)
	sbit := obliv.GeU64(zm+uint64(m), uint64(h)) ^ obliv.GeU64(uint64(z), uint64(h))
	for i := 0; i < h; i++ {
		s.OSwap(sbit^obliv.GeU64(uint64(i), zpm), lo+i, lo+i+h)
	}
}

func refDistribute(s pairRouter, lo, n int) {
	if n < 2 {
		return
	}
	stride := pow2Below(n)
	left := n - stride
	mid, end := uint64(lo+left), uint64(lo+n)
	for i := lo; i < lo+left; i++ {
		a, b := s.Target(i), s.Target(i+stride)
		aRight := obliv.GeU64(a, mid) & obliv.LtU64(a, end)
		s.OSwap(aRight|obliv.LtU64(b, mid), i, i+stride)
	}
	refDistribute(s, lo, left)
	refDistribute(s, lo+left, stride)
}

// pairRows is the old row set: OSwap exchanges every column of a record
// (only the metadata if meta) and records the swap; greater is an
// ordering's old predicate.
type pairRows struct {
	*Requests
	meta    bool
	greater func(r *Requests, i, j int) uint8
}

func (p pairRows) OSwap(c uint8, i, j int) {
	r := p.Requests
	r.Rec.Record(trace.KindSwap, i, j)
	obliv.CondSwapU8(c, &r.Op[i], &r.Op[j])
	obliv.CondSwapU64(c, &r.Key[i], &r.Key[j])
	obliv.CondSwapU32(c, &r.Sub[i], &r.Sub[j])
	obliv.CondSwapU64(c, &r.Seq[i], &r.Seq[j])
	obliv.CondSwapU64(c, &r.Client[i], &r.Client[j])
	if p.meta {
		return
	}
	obliv.CondSwapU8(c, &r.Tag[i], &r.Tag[j])
	obliv.CondSwapU8(c, &r.Aux[i], &r.Aux[j])
	a, b := r.Block(i), r.Block(j)
	m := obliv.MaskByte(c)
	for k := range a {
		d := (a[k] ^ b[k]) & m
		a[k] ^= d
		b[k] ^= d
	}
}

func (p pairRows) Greater(i, j int) uint8 { return p.greater(p.Requests, i, j) }

// Target is BySlot's old router.
func (p pairRows) Target(i int) uint64 { return uint64(p.Sub[i]) - 1 }

func gtSubKeyWriteSeq(r *Requests, i, j int) uint8 {
	subGt := obliv.GtU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	subEq := obliv.EqU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	keyGt := obliv.GtU64(r.Key[i], r.Key[j])
	keyEq := obliv.EqU64(r.Key[i], r.Key[j])
	opLt := obliv.LtU64(uint64(r.Op[i]), uint64(r.Op[j]))
	opEq := obliv.EqU64(uint64(r.Op[i]), uint64(r.Op[j]))
	seqLt := obliv.LtU64(r.Seq[i], r.Seq[j])
	inner := obliv.Or(opLt, obliv.And(opEq, seqLt))
	return obliv.Or(subGt, obliv.And(subEq, obliv.Or(keyGt, obliv.And(keyEq, inner))))
}

func gtSubKeyTag(r *Requests, i, j int) uint8 {
	subGt := obliv.GtU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	subEq := obliv.EqU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	keyGt := obliv.GtU64(r.Key[i], r.Key[j])
	keyEq := obliv.EqU64(r.Key[i], r.Key[j])
	tagGt := obliv.GtU64(uint64(r.Tag[i]), uint64(r.Tag[j]))
	return obliv.Or(subGt, obliv.And(subEq, obliv.Or(keyGt, obliv.And(keyEq, tagGt))))
}

func gtSubKey(r *Requests, i, j int) uint8 {
	subGt := obliv.GtU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	subEq := obliv.EqU64(uint64(r.Sub[i]), uint64(r.Sub[j]))
	keyGt := obliv.GtU64(r.Key[i], r.Key[j])
	return obliv.Or(subGt, obliv.And(subEq, keyGt))
}

// pairU64 is U64Slice's old per-pair form; tracedU64 is the run-level one
// with its swaps recorded.
type pairU64 struct {
	u   obliv.U64Slice
	rec *trace.Recorder
}

func (p pairU64) Len() int { return len(p.u) }
func (p pairU64) OSwap(c uint8, i, j int) {
	p.rec.Record(trace.KindSwap, i, j)
	obliv.CondSwapU64(c, &p.u[i], &p.u[j])
}
func (p pairU64) Greater(i, j int) uint8 { return obliv.GtU64(p.u[i], p.u[j]) }

type tracedU64 struct {
	obliv.U64Slice
	rec *trace.Recorder
}

func (t tracedU64) SwapRun(c []uint8, i, j int) {
	for k := range c {
		t.rec.Record(trace.KindSwap, i+k, j+k)
	}
	t.U64Slice.SwapRun(c, i, j)
}

// dropLast is the negative control: a row set whose SwapRun skips the
// exchange with index at among those it is asked to make (at < 0 skips
// none) and counts them in made.
type dropLast struct {
	obliv.Sorter
	at   int
	made *int
}

func (d dropLast) SwapRun(c []uint8, i, j int) {
	c = append([]uint8(nil), c...)
	for t := range c {
		if c[t] == 1 {
			if *d.made == d.at {
				c[t] = 0
			}
			*d.made++
		}
	}
	d.Sorter.SwapRun(c, i, j)
}

// ordering is one row-set type under test, in its run-level and per-pair
// forms over two copies of the same rows.
type ordering struct {
	name string
	run  func(r *Requests) obliv.Sorter // nil: not a Sorter
	pair func(r *Requests) pairRows
}

var orderings = []ordering{
	{"BySubKeyWriteSeq", func(r *Requests) obliv.Sorter { return BySubKeyWriteSeq{r} },
		func(r *Requests) pairRows { return pairRows{r, false, gtSubKeyWriteSeq} }},
	{"BySubKeyTag", func(r *Requests) obliv.Sorter { return BySubKeyTag{r} },
		func(r *Requests) pairRows { return pairRows{r, false, gtSubKeyTag} }},
	{"BySubKey", func(r *Requests) obliv.Sorter { return BySubKey{r} },
		func(r *Requests) pairRows { return pairRows{r, false, gtSubKey} }},
	{"BySlot", nil, func(r *Requests) pairRows { return pairRows{r, false, nil} }},
}

// randomRows draws n records whose sort keys collide often — equal
// (Sub, Key, Op, Seq) tuples included, so descending layers exchange equal
// keys — and whose other columns tell every record apart. The byte columns
// take values with high bits set, so a kernel that moves only some bits of
// a byte shows. BySlot's Sub is Distribute's input: k ≤ n records up front
// carrying ascending slots + 1.
func randomRows(rng *rand.Rand, n, bs int, slots bool) *Requests {
	r := NewRequests(n, bs)
	byteVal := func() uint8 { return uint8(rng.Intn(4)) * 85 }
	for i := 0; i < n; i++ {
		r.Op[i], r.Key[i], r.Sub[i] = byteVal(), uint64(rng.Intn(1+n/4)), uint32(rng.Intn(3))
		r.Tag[i], r.Aux[i], r.Seq[i], r.Client[i] = byteVal(), byteVal(), uint64(rng.Intn(4)), uint64(i)
		if rng.Intn(8) == 0 {
			r.Key[i] |= DummyKeyBit
		}
	}
	rng.Read(r.Data)
	if slots {
		k := 0
		clear(r.Sub)
		for slot := 0; slot < n; slot++ {
			if rng.Intn(3) > 0 {
				r.Sub[k], k = uint32(slot)+1, k+1
			}
		}
	}
	return r
}

// sameRows reports how got differs from want, column by column, or "".
func sameRows(got, want *Requests) string {
	for _, col := range []struct {
		name string
		a, b any
	}{{"Op", got.Op, want.Op}, {"Key", got.Key, want.Key}, {"Sub", got.Sub, want.Sub}, {"Tag", got.Tag, want.Tag},
		{"Aux", got.Aux, want.Aux}, {"Seq", got.Seq, want.Seq}, {"Client", got.Client, want.Client}} {
		if !reflect.DeepEqual(col.a, col.b) {
			return col.name + " differs"
		}
	}
	if !bytes.Equal(got.Data, want.Data) {
		return "Data differs"
	}
	return ""
}

// network is one network as both paths run it; ok says whether it applies
// to an ordering (Distribute needs a router, the sorts a predicate).
type network struct {
	name string
	ok   func(o ordering) bool
	run  func(s obliv.Sorter, r *Requests, marks []uint8, runs []int)
	ref  func(p pairRows, marks []uint8, runs []int)
}

var networks = []network{
	{"Sort", isSorter,
		func(s obliv.Sorter, _ *Requests, _ []uint8, _ []int) { obliv.Sort(s) },
		func(p pairRows, _ []uint8, _ []int) { refSort(p) }},
	{"MergeSorted", isSorter,
		func(s obliv.Sorter, _ *Requests, _ []uint8, runs []int) { obliv.MergeSorted(s, runs) },
		func(p pairRows, _ []uint8, runs []int) { refMergeSorted(p, runs) }},
	{"Compact", func(ordering) bool { return true },
		func(s obliv.Sorter, r *Requests, marks []uint8, _ []int) {
			if s == nil {
				obliv.Compact(r, marks)
			} else {
				obliv.Compact(s, marks)
			}
		},
		func(p pairRows, marks []uint8, _ []int) { refCompact(p, marks) }},
	{"Distribute", func(o ordering) bool { return o.run == nil },
		func(_ obliv.Sorter, r *Requests, _ []uint8, _ []int) { obliv.Distribute(BySlot{r}) },
		func(p pairRows, _ []uint8, _ []int) { refDistribute(p, 0, p.Len()) }},
}

func isSorter(o ordering) bool { return o.run != nil }

// splitRuns cuts n into 1 + n%4 consecutive run lengths, the first ones
// shorter.
func splitRuns(n int) []int {
	k := 1 + n%4
	runs := make([]int, k)
	for i := range runs {
		runs[i] = (n + i) / k
	}
	return runs
}

// differentialLengths are every length up to 70 and batch_heavy's α, R and
// α·S.
func differentialLengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 845, 2048, 3380)
}

// checkNetwork runs one network over one ordering both ways from the same
// rows and reports the first difference in rows or swap trace, or "".
func checkNetwork(nw network, o ordering, n int, seed int64, wrap func(obliv.Sorter) obliv.Sorter) string {
	rng := rand.New(rand.NewSource(seed))
	bs := []int{160, 44}[n%2] // 44: a block the vector pass leaves a tail of
	got := randomRows(rng, n, bs, o.run == nil)
	want := got.Clone()
	marks := make([]uint8, n)
	for i := range marks {
		marks[i] = uint8(rng.Intn(2))
	}
	runs := splitRuns(n)
	got.Rec, want.Rec = trace.New(), trace.New()
	var s obliv.Sorter
	if o.run != nil {
		s = o.run(got)
		if wrap != nil {
			s = wrap(s)
		}
	}
	nw.run(s, got, append([]uint8(nil), marks...), runs)
	nw.ref(o.pair(want), marks, runs)
	if d := sameRows(got, want); d != "" {
		return d
	}
	if !trace.Equal(got.Rec, want.Rec) {
		return fmt.Sprintf("swap trace differs (%d vs %d events)", got.Rec.Count(), want.Rec.Count())
	}
	return ""
}

// TestNetworksMatchPerPairReference: every network over every ordering, at
// every length 0…70 and at 845, 2 048 and 3 380 rows, on every row-kernel
// body the host has, leaves exactly the rows and records exactly the swap
// trace of the per-pair construction — and so does U64Slice.
func TestNetworksMatchPerPairReference(t *testing.T) {
	for _, body := range obliv.Kernels() {
		restore := obliv.UseRowKernel(body)
		for _, n := range differentialLengths() {
			for _, o := range orderings {
				for _, nw := range networks {
					if !nw.ok(o) {
						continue
					}
					if d := checkNetwork(nw, o, n, int64(n), nil); d != "" {
						t.Fatalf("%s: %s over %s, n=%d: %s", body, nw.name, o.name, n, d)
					}
				}
			}
			if d := checkU64(n); d != "" {
				t.Fatalf("%s: U64Slice, n=%d: %s", body, n, d)
			}
		}
		restore()
	}
}

// checkU64 runs the three networks a U64Slice takes both ways.
func checkU64(n int) string {
	rng := rand.New(rand.NewSource(int64(n)))
	vals := make([]uint64, n)
	marks := make([]uint8, n)
	for i := range vals {
		vals[i], marks[i] = uint64(rng.Intn(1+n/2)), uint8(rng.Intn(2))
	}
	runs := splitRuns(n)
	for _, nw := range []struct {
		name string
		run  func(tracedU64)
		ref  func(pairU64)
	}{
		{"Sort", func(s tracedU64) { obliv.Sort(s) }, func(p pairU64) { refSort(p) }},
		{"MergeSorted", func(s tracedU64) { obliv.MergeSorted(s, runs) }, func(p pairU64) { refMergeSorted(p, runs) }},
		{"Compact", func(s tracedU64) { obliv.Compact(s, append([]uint8(nil), marks...)) },
			func(p pairU64) { refCompact(p, append([]uint8(nil), marks...)) }},
	} {
		got := tracedU64{append(obliv.U64Slice(nil), vals...), trace.New()}
		want := pairU64{append(obliv.U64Slice(nil), vals...), trace.New()}
		nw.run(got)
		nw.ref(want)
		if !reflect.DeepEqual(got.U64Slice, want.u) || !trace.Equal(got.rec, want.rec) {
			return nw.name + " differs"
		}
	}
	return ""
}

// TestSortParallelMatchesPerPairReference: the parallel sorter interleaves
// the same network's runs across goroutines; the rows come out the same.
func TestSortParallelMatchesPerPairReference(t *testing.T) {
	for _, n := range []int{845, 2048, 3380} {
		for _, o := range orderings[:3] {
			rng := rand.New(rand.NewSource(int64(n)))
			got := randomRows(rng, n, 160, false)
			want := got.Clone()
			obliv.SortParallel(o.run(got), 3)
			refSort(o.pair(want))
			if d := sameRows(got, want); d != "" {
				t.Fatalf("SortParallel over %s, n=%d: %s", o.name, n, d)
			}
		}
	}
}

// TestDifferentialCatchesADroppedSwap is the negative control: a row set
// that skips the last exchange a network makes — which no later layer can
// repair — fails the comparison, in every network of the matrix that
// exchanges rows.
func TestDifferentialCatchesADroppedSwap(t *testing.T) {
	for _, nw := range networks[:3] {
		made := 0
		count := func(s obliv.Sorter) obliv.Sorter { return dropLast{s, -1, &made} }
		if d := checkNetwork(nw, orderings[0], 70, 70, count); d != "" || made == 0 {
			t.Fatalf("%s: the counting pass differs (%s) or swaps nothing (%d)", nw.name, d, made)
		}
		last := made - 1
		made = 0
		drop := func(s obliv.Sorter) obliv.Sorter { return dropLast{s, last, &made} }
		if d := checkNetwork(nw, orderings[0], 70, 70, drop); d == "" {
			t.Fatalf("%s: dropping exchange %d went unnoticed", nw.name, last)
		}
	}
}

// refOClearRow is OClearRow as it was before it cleared the value block a
// word at a time: one byte per loop iteration.
func refOClearRow(r *Requests, c uint8, i int) {
	m8, m64 := obliv.MaskByte(c^1), obliv.Mask64(c^1)
	r.Op[i] &= m8
	r.Key[i] &= m64
	r.Sub[i] &= uint32(m64)
	r.Tag[i] &= m8
	r.Aux[i] &= m8
	r.Seq[i] &= m64
	r.Client[i] &= m64
	b := r.Block(i)
	for k := range b {
		b[k] &= m8
	}
}

// TestOClearRowMatchesByteReference: clearing under the mask a word at a
// time leaves every column of every row as the byte loop did, at block
// sizes with and without a tail, and records one copy per row.
func TestOClearRowMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, bs := range []int{1, 7, 8, 13, 64, 160, 161} {
		got := randomRows(rng, 40, bs, false)
		want := got.Clone()
		rec := trace.New()
		got.Rec = rec
		for i := 0; i < got.Len(); i++ {
			c := uint8(rng.Intn(2))
			got.OClearRow(c, i)
			refOClearRow(want, c, i)
		}
		if d := sameRows(got, want); d != "" {
			t.Fatalf("block %d: %s", bs, d)
		}
		if rec.Count() != uint64(got.Len()) {
			t.Fatalf("block %d: %d events recorded, want one per row", bs, rec.Count())
		}
	}
}
