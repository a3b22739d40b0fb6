package obliv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The oracle: the slot-major, byte-at-a-time scan of one bucket, as the
// per-slot loop the kernel replaced spelled it.

func refBucketMasks(id uint64, key []uint64, tag, op, aux []uint8, write uint8, mw, mrw []uint64) {
	for j := range key {
		eq := EqU64(key[j], id) & tag[j]
		isW := EqU8(op[j], write)
		mw[j] = Mask64(eq & isW)
		mrw[j] = Mask64(eq&Not(isW) | eq&isW)
		CondSetU8(eq, &aux[j], 1)
	}
}

func refFusedBucket(obj, slots []byte, blockSize int, mw, mrw []uint64) {
	for j := range mw {
		slot := slots[j*blockSize : (j+1)*blockSize]
		for i := range obj {
			sh := 8 * uint(i&7)
			o, s := obj[i], slot[i]
			obj[i] = o ^ (byte(mw[j]>>sh) & (o ^ s))
			slot[i] = s ^ (byte(mrw[j]>>sh) & (o ^ s))
		}
	}
}

// tier is a test table tier: columns for n buckets of z slots, each column
// starting off bytes (or words) into its allocation so the kernels see
// unaligned starts.
type tier struct {
	key          []uint64
	tag, op, aux []uint8
	data         []byte
	z, bs        int
}

func unaligned(r *rand.Rand, n, off int) []byte {
	b := make([]byte, off+n)
	r.Read(b)
	return b[off : off+n : off+n]
}

func randomTier(r *rand.Rand, n, z, bs, off int) *tier {
	rows := n * z
	t := &tier{key: make([]uint64, off+rows)[off:], z: z, bs: bs,
		tag: unaligned(r, rows, off), op: unaligned(r, rows, off+1), aux: unaligned(r, rows, off+2),
		data: unaligned(r, rows*bs, off+3)}
	for i := range t.key {
		t.key[i] = r.Uint64()
	}
	return t
}

// clone copies t at the same column offsets.
func (t *tier) clone(off int) *tier {
	return &tier{key: append(make([]uint64, off), t.key...)[off:], z: t.z, bs: t.bs,
		tag: append(make([]byte, off), t.tag...)[off:], op: append(make([]byte, off+1), t.op...)[off+1:],
		aux: append(make([]byte, off+2), t.aux...)[off+2:], data: append(make([]byte, off+3), t.data...)[off+3:]}
}

// tiers is a test table: tier 1 and tier 2 at the same block size.
type tiers struct{ t1, t2 *tier }

func randomTiers(r *rand.Rand, n1, z1, n2, z2, bs, off int) tiers {
	return tiers{randomTier(r, n1, z1, bs, off), randomTier(r, n2, z2, bs, off+1)}
}

func (tt tiers) clone(off int) tiers { return tiers{tt.t1.clone(off), tt.t2.clone(off + 1)} }

func (tt tiers) bind() *Tiers {
	t := new(Tiers)
	t.T1.Bind(tt.t1.key, tt.t1.tag, tt.t1.op, tt.t1.aux, tt.t1.data, tt.t1.z, tt.t1.bs)
	t.T2.Bind(tt.t2.key, tt.t2.tag, tt.t2.op, tt.t2.aux, tt.t2.data, tt.t2.z, tt.t2.bs)
	return t
}

// refScan is one object against one bucket by the oracle.
func (t *tier) refScan(bucket int, id uint64, obj []byte, write uint8) {
	lo, hi := bucket*t.z, (bucket+1)*t.z
	mw, mrw := make([]uint64, t.z), make([]uint64, t.z)
	refBucketMasks(id, t.key[lo:hi], t.tag[lo:hi], t.op[lo:hi], t.aux[lo:hi], write, mw, mrw)
	refFusedBucket(obj, t.data[lo*t.bs:hi*t.bs], t.bs, mw, mrw)
}

// refRun is ScanRun by the oracle: object after object, each through its
// tier-1 bucket and then its tier-2 bucket, slot by slot.
func (tt tiers) refRun(ids []uint64, b1, b2 []uint32, objs []byte, write uint8) {
	bs := tt.t1.bs
	for i, id := range ids {
		tt.t1.refScan(int(b1[i]), id, objs[i*bs:(i+1)*bs], write)
		tt.t2.refScan(int(b2[i]), id, objs[i*bs:(i+1)*bs], write)
	}
}

// hit plants a request for id in bucket of t: one read, one write, none, or
// (several, dirty) a third of the slots whatever their tag and op.
func (t *tier) hit(r *rand.Rand, pattern string, bucket int, id uint64, write uint8) {
	lo := bucket * t.z
	one := func(op uint8) { j := lo + r.Intn(t.z); t.key[j], t.tag[j], t.op[j] = id, 1, op }
	switch pattern {
	case "one-read":
		one(write ^ 1)
	case "one-write":
		one(write)
	case "several", "dirty":
		// More than one match at once, reads and writes interleaved (and, for
		// dirty, tag/op/aux bytes drawn from all of 0…255): the equivalence
		// must not lean on the ≤1-match invariant of a real table.
		for j := lo; j < lo+t.z; j++ {
			if r.Intn(3) == 0 {
				t.key[j] = id
			}
		}
	}
}

// clean makes every row's tag, op and aux a 0/1 byte, as a real table's are.
func (t *tier) clean(r *rand.Rand, write uint8) {
	for j := range t.tag {
		t.tag[j], t.op[j], t.aux[j] = uint8(r.Intn(2)), uint8(r.Intn(2))*write, 0
	}
}

var scanPatterns = []string{"none", "one-read", "one-write", "several", "dirty"}

// scanCase is one run for ScanRun: a table of three tier-1 buckets and one
// (pair steps) or three (single steps) tier-2 buckets, and n objects. Every
// other object shares the previous one's tier-1 bucket; each object's
// request, shaped by pattern, sits in its tier-1 bucket or its tier-2
// bucket, alternately.
type scanCase struct {
	seed  tiers
	ids   []uint64
	b1    []uint32
	b2    []uint32
	objs  []byte
	write uint8
	off   int
}

func newScanCase(r *rand.Rand, pattern string, z1, z2, bs, n int, pair bool, off int) scanCase {
	n2 := 3
	if pair {
		n2 = 1
	}
	c := scanCase{seed: randomTiers(r, 3, z1, n2, z2, bs, off), write: 1, off: off,
		ids: make([]uint64, n), b1: make([]uint32, n), b2: make([]uint32, n), objs: unaligned(r, n*bs, off)}
	if pattern == "dirty" {
		c.write = uint8(r.Intn(256))
	} else {
		c.seed.t1.clean(r, c.write)
		c.seed.t2.clean(r, c.write)
	}
	for i := range c.ids {
		c.ids[i], c.b1[i], c.b2[i] = r.Uint64(), uint32(r.Intn(3)), uint32(r.Intn(n2))
		if i%2 == 1 {
			c.b1[i] = c.b1[i-1]
		}
		if i%2 == 0 {
			c.seed.t1.hit(r, pattern, int(c.b1[i]), c.ids[i], c.write)
		} else {
			c.seed.t2.hit(r, pattern, int(c.b2[i]), c.ids[i], c.write)
		}
	}
	return c
}

// check runs the case on body k and reports whether the objects and both
// tiers match the oracle's.
func (c scanCase) check(k isa) bool {
	want, wantObjs := c.seed.clone(c.off), append([]byte(nil), c.objs...)
	want.refRun(c.ids, c.b1, c.b2, wantObjs, c.write)
	got, objs := c.seed.clone(c.off), append(make([]byte, c.off), c.objs...)[c.off:]
	tt := got.bind()
	tt.Use(k.String())
	tt.ScanRun(c.ids, c.b1, c.b2, objs, c.write)
	return bytes.Equal(objs, wantObjs) && reflect.DeepEqual(got, want)
}

// scanShapes are the (Z1, Z2) pairs the differentials run: every Z of
// {1, 4, 20, 34, 36, 98} in each tier, on and off the four-slot key step.
var scanShapes = [][2]int{{1, 1}, {4, 20}, {4, 34}, {4, 98}, {20, 4}, {36, 36}, {98, 1}, {1, 36}, {34, 4}}

// TestScanMatchesSlotMajor: every body this host has — not only the one
// ScanRun dispatches to — leaves the objects and both tiers (aux and data of
// the scanned buckets, and their untouched neighbours) bit-for-bit as the
// slot-major oracle does: in pair steps (one tier-2 bucket) and single ones,
// at block sizes on and off the 160/32/8-byte steps, bucket sizes on and off
// the four-slot key step, run lengths 0…9, two objects in one tier-1 bucket,
// a request in tier 1 or tier 2 that is a read, a write, absent, several or
// on dirty rows, and unaligned columns.
func TestScanMatchesSlotMajor(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, bs := range []int{1, 7, 8, 31, 32, 33, 100, 128, 159, 160, 161, 192, 320, 333, 4096} {
		for si, z := range scanShapes {
			for _, pair := range []bool{false, true} {
				for pi, pattern := range scanPatterns {
					n := (si + pi + bs) % 10
					c := newScanCase(r, pattern, z[0], z[1], bs, n, pair, 1+pi)
					for _, k := range kernels() {
						if !c.check(k) {
							t.Fatalf("%v: bs=%d z=%v pair=%v %s n=%d: differs from the slot-major reference", k, bs, z, pair, pattern, n)
						}
					}
				}
			}
		}
	}
}

// TestScanRunLengths: run lengths 0…9 — odd ones end in a single — at
// scan_heavy's shape, every body and pattern.
func TestScanRunLengths(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for n := 0; n <= 9; n++ {
		for _, pair := range []bool{false, true} {
			for pi, pattern := range scanPatterns {
				c := newScanCase(r, pattern, 4, 20, 160, n, pair, pi)
				for _, k := range kernels() {
					if !c.check(k) {
						t.Fatalf("%v: n=%d pair=%v %s: differs from the slot-major reference", k, n, pair, pattern)
					}
				}
			}
		}
	}
}

// condMasks fills mw/mrw for one named pattern; the condition-derived ones
// also return the (cw, cr) pairs FusedAccess would be called with.
func condMasks(pattern string, z int, r *rand.Rand) (mw, mrw []uint64, cw, cr []uint8) {
	mw, mrw = make([]uint64, z), make([]uint64, z)
	if pattern == "arbitrary" {
		for j := range mw {
			mw[j], mrw[j] = r.Uint64(), r.Uint64()
		}
		return mw, mrw, nil, nil
	}
	cw, cr = make([]uint8, z), make([]uint8, z)
	switch pattern {
	case "one-read":
		cr[r.Intn(z)] = 1
	case "one-write":
		cw[r.Intn(z)] = 1
	case "several":
		for j := range cw {
			switch r.Intn(3) {
			case 0:
				cw[j] = 1
			case 1:
				cr[j] = 1
			}
		}
	}
	for j := range mw {
		mw[j], mrw[j] = Mask64(cw[j]), Mask64(cw[j]|cr[j])
	}
	return mw, mrw, cw, cr
}

// passMatches runs the block pass of every body on preset mask words — one
// step, a pair when pair — and reports the first body that differs from the
// oracle ("" if none).
func passMatches(c scanCase, pair bool, masks [8][]uint64) string {
	bs := c.seed.t1.bs
	b := min(1, len(c.ids)-1)
	if !pair {
		b = 0
	}
	want, wantObjs := c.seed.clone(c.off), append([]byte(nil), c.objs...)
	refFusedBucket(wantObjs[:bs], want.t1.data[int(c.b1[0])*want.t1.z*bs:], bs, masks[0], masks[1])
	refFusedBucket(wantObjs[:bs], want.t2.data[int(c.b2[0])*want.t2.z*bs:], bs, masks[2], masks[3])
	if pair {
		refFusedBucket(wantObjs[bs:2*bs], want.t1.data[int(c.b1[1])*want.t1.z*bs:], bs, masks[4], masks[5])
		refFusedBucket(wantObjs[bs:2*bs], want.t2.data[int(c.b2[0])*want.t2.z*bs:], bs, masks[6], masks[7])
	}
	for _, k := range kernels() {
		got, objs := c.seed.clone(c.off), append(make([]byte, c.off), c.objs...)[c.off:]
		tt := got.bind()
		for m, dst := range [8][]uint64{tt.T1.mw, tt.T1.mrw, tt.T2.mw, tt.T2.mrw, tt.T1.mwb, tt.T1.mrwb, tt.T2.mwb, tt.T2.mrwb} {
			copy(dst, masks[m])
		}
		r1a, r1b, r2 := int(c.b1[0])*tt.T1.z, int(c.b1[b])*tt.T1.z, int(c.b2[0])*tt.T2.z
		tt.pass(k, 0, 0, r1a, r1b, r2, objs[:bs], objs[b*bs:(b+1)*bs], 0, -1, -1, 0, 0, pair)
		if !bytes.Equal(objs, wantObjs) || !reflect.DeepEqual(got, want) {
			return k.String()
		}
	}
	return ""
}

// TestExchangeMatchesSlotMajorForAnyMasks: the block pass of every body,
// single and pair, is the select identity bit by bit — for arbitrary mask
// words, not only the all-ones/zero ones a key pass produces — and, for
// condition-derived masks, the oracle is the loop of one FusedAccess per
// slot it replaced.
func TestExchangeMatchesSlotMajorForAnyMasks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, bs := range []int{1, 7, 8, 16, 24, 31, 32, 33, 100, 128, 160, 161, 200, 320, 4096} {
		for _, z := range []int{1, 4, 8, 12, 16, 20, 36, 98, 128} {
			for pi, pattern := range []string{"none", "one-read", "one-write", "several", "arbitrary"} {
				mw, mrw, cw, cr := condMasks(pattern, z, r)
				off := 1 + pi%7
				if cw != nil {
					seed := randomTier(r, 1, z, bs, off)
					o, s := unaligned(r, bs, off), append([]byte(nil), seed.data...)
					wantObj, wantSlots := append([]byte(nil), o...), append([]byte(nil), s...)
					refFusedBucket(wantObj, wantSlots, bs, mw, mrw)
					for j := range cw {
						FusedAccess(cw[j], cr[j], o, s[j*bs:(j+1)*bs])
					}
					if !bytes.Equal(o, wantObj) || !bytes.Equal(s, wantSlots) {
						t.Fatalf("oracle disagrees with the FusedAccess loop: bs=%d z=%d %s", bs, z, pattern)
					}
				}
				for _, pair := range []bool{false, true} {
					var masks [8][]uint64
					for m := range masks {
						masks[m], _, _, _ = condMasks(pattern, z, r)
					}
					masks[0], masks[1] = mw, mrw
					c := newScanCase(r, "none", z, z, bs, 2, pair, off)
					if bad := passMatches(c, pair, masks); bad != "" {
						t.Fatalf("%s: bs=%d z=%d %s pair=%v: result differs from slot-major reference", bad, bs, z, pattern, pair)
					}
				}
			}
		}
	}
}

// checkScan derives a whole case from (seed, bs, z, pair) — a keyed run and
// a block pass on arbitrary masks — and reports whether every body matches
// the oracle.
func checkScan(seed int64, bs, z int, pair bool) bool {
	r := rand.New(rand.NewSource(seed))
	off, z1, n := r.Intn(8), 1+r.Intn(40), r.Intn(10)
	c := newScanCase(r, scanPatterns[r.Intn(len(scanPatterns))], z1, z, bs, n, pair, off)
	for _, k := range kernels() {
		if !c.check(k) {
			return false
		}
	}
	var masks [8][]uint64
	for m := range masks {
		masks[m], _, _, _ = condMasks("arbitrary", []int{z1, z1, z, z}[m%4], r)
	}
	return passMatches(newScanCase(r, "none", z1, z, bs, 2, pair, off), pair, masks) == ""
}

func TestScanQuick(t *testing.T) {
	prop := func(seed int64, bs uint16, z uint8, pair bool) bool {
		return checkScan(seed, 1+int(bs)%400, 1+int(z)%135, pair)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func FuzzFusedBucket(f *testing.F) {
	f.Add(int64(1), uint16(160), uint8(36), false)
	f.Add(int64(2), uint16(160), uint8(8), false)
	f.Add(int64(3), uint16(33), uint8(1), false)
	f.Add(int64(4), uint16(7), uint8(0), false)
	f.Add(int64(5), uint16(4096), uint8(3), false)
	f.Add(int64(6), uint16(160), uint8(98), false)
	f.Add(int64(7), uint16(33), uint8(134), false)
	f.Add(int64(8), uint16(319), uint8(19), false)
	f.Add(int64(9), uint16(160), uint8(19), true)
	f.Add(int64(10), uint16(160), uint8(97), true)
	f.Add(int64(11), uint16(161), uint8(33), true)
	f.Add(int64(12), uint16(33), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, bs uint16, z uint8, pair bool) {
		if !checkScan(seed, 1+int(bs)%5000, 1+int(z)%135, pair) {
			t.Fatalf("a kernel body differs from the slot-major reference: seed=%d bs=%d z=%d pair=%v", seed, 1+int(bs)%5000, 1+int(z)%135, pair)
		}
	})
}

// TestKeyPassEveryLaneSplit covers every lane/tail split (z = 1…132) of the
// key pass on every body, in both tiers and for both objects of a pair, with
// several keys equal to id at once and tag, op and aux bytes drawn from more
// than {0, 1}; stale mask scratch must be overwritten.
func TestKeyPassEveryLaneSplit(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for z := 1; z <= 132; z++ {
		for trial := 0; trial < 12; trial++ {
			off := 1 + trial%5
			write := uint8(1)
			if trial%4 == 3 {
				write = uint8(r.Intn(256))
			}
			ids := []uint64{r.Uint64(), r.Uint64()}
			b1, b2 := []uint32{1, 0}, []uint32{0, 0}
			seed := randomTiers(r, 2, z, 1, 133-z, 8, off)
			pattern := []string{"several", "dirty"}[trial%2]
			seed.t1.hit(r, pattern, 1, ids[0], write)
			seed.t1.hit(r, pattern, 0, ids[1], write)
			seed.t2.hit(r, pattern, 0, ids[0], write)
			seed.t2.hit(r, pattern, 0, ids[1], write)
			want := seed.clone(off)
			var wantMasks [8][]uint64
			for m := range wantMasks {
				wantMasks[m] = make([]uint64, []int{z, 133 - z}[m/2%2])
			}
			for o, id := range ids {
				for ti, tr := range []*tier{want.t1, want.t2} {
					lo := []int{int(b1[o]), int(b2[o])}[ti] * tr.z
					hi := lo + tr.z
					refBucketMasks(id, tr.key[lo:hi], tr.tag[lo:hi], tr.op[lo:hi], tr.aux[lo:hi], write, wantMasks[4*o+2*ti], wantMasks[4*o+2*ti+1])
				}
			}
			for _, k := range kernels() {
				got := seed.clone(off)
				tt := got.bind()
				tt.Use(k.String())
				gotMasks := [8][]uint64{tt.T1.mw, tt.T1.mrw, tt.T2.mw, tt.T2.mrw, tt.T1.mwb, tt.T1.mrwb, tt.T2.mwb, tt.T2.mrwb}
				for _, m := range gotMasks {
					for j := range m {
						m[j] = r.Uint64()
					}
				}
				tt.ScanRun(ids, b1, b2, make([]byte, 16), write)
				if !reflect.DeepEqual(gotMasks, wantMasks) || !bytes.Equal(got.t1.aux, want.t1.aux) || !bytes.Equal(got.t2.aux, want.t2.aux) {
					t.Fatalf("%v: z=%d trial=%d: masks or found bits differ from the reference", k, z, trial)
				}
			}
		}
	}
}

func TestBucketsShapeMismatchPanics(t *testing.T) {
	ok := func() *Tiers { return randomTiers(rand.New(rand.NewSource(1)), 2, 2, 1, 3, 8, 0).bind() }
	one := []uint64{1}
	for name, call := range map[string]func(){
		"rows not a multiple of z": func() {
			new(Buckets).Bind(make([]uint64, 3), make([]uint8, 3), make([]uint8, 3), make([]uint8, 3), make([]byte, 24), 2, 8)
		},
		"column length": func() {
			new(Buckets).Bind(make([]uint64, 4), make([]uint8, 4), make([]uint8, 3), make([]uint8, 4), make([]byte, 32), 2, 8)
		},
		"data length": func() {
			new(Buckets).Bind(make([]uint64, 4), make([]uint8, 4), make([]uint8, 4), make([]uint8, 4), make([]byte, 31), 2, 8)
		},
		"zero z":         func() { new(Buckets).Bind(nil, nil, nil, nil, nil, 0, 8) },
		"object length":  func() { ok().ScanRun(one, []uint32{0}, []uint32{0}, make([]byte, 7), 1) },
		"bucket columns": func() { ok().ScanRun(one, []uint32{0, 0}, []uint32{0}, make([]byte, 8), 1) },
		"tier-1 bucket":  func() { ok().ScanRun(one, []uint32{2}, []uint32{0}, make([]byte, 8), 1) },
		"tier-2 bucket":  func() { ok().ScanRun(one, []uint32{0}, []uint32{1}, make([]byte, 8), 1) },
		"tier block size": func() {
			tt := ok()
			tt.T2.Bind(make([]uint64, 2), make([]uint8, 2), make([]uint8, 2), make([]uint8, 2), make([]byte, 32), 2, 16)
			tt.ScanRun(one, []uint32{0}, []uint32{0}, make([]byte, 8), 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestKernelIsTheWidestBody: the dispatched body is the last the platform
// lists, and every listed body has a name.
func TestKernelIsTheWidestBody(t *testing.T) {
	ks := kernels()
	if ks[0] != isaGo {
		t.Fatalf("the portable body is not listed first: %v", ks)
	}
	if Kernel() != ks[len(ks)-1].String() {
		t.Fatalf("Kernel() = %q, bodies %v", Kernel(), ks)
	}
	t.Logf("bodies on this host: %v; ScanRun runs %s", ks, Kernel())
}

// BenchmarkBucketsScan is the kernel alone — runs of 64 objects against a
// cached table, no hashing, no partition stream — on every body the host
// has, at the ledger's block size and scan_heavy's bucket sizes (Z1 = 4,
// Z2 = 20): single steps (three tier-2 buckets) and pair steps (one, as
// scan_heavy's table has). ns/object is per object scanned.
func BenchmarkBucketsScan(b *testing.B) {
	const run, bs = 64, 160
	for _, pair := range []bool{false, true} {
		for _, k := range kernels() {
			b.Run(fmt.Sprintf("z1=4/z2=20/pair=%v/%v", pair, k), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				n2 := 3
				if pair {
					n2 = 1
				}
				tt := randomTiers(r, 8, 4, n2, 20, bs, 0)
				tt.t1.data = append(make([]byte, 0, len(tt.t1.data)), tt.t1.data...) // aligned, as a real tier's is
				tt.t2.data = append(make([]byte, 0, len(tt.t2.data)), tt.t2.data...)
				bt := tt.bind()
				bt.Use(k.String())
				ids, b1, b2, objs := make([]uint64, run), make([]uint32, run), make([]uint32, run), make([]byte, run*bs)
				for i := range ids {
					ids[i], b1[i], b2[i] = r.Uint64(), uint32(r.Intn(8)), uint32(r.Intn(n2))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bt.ScanRun(ids, b1, b2, objs, 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/run, "ns/object")
			})
		}
	}
}
