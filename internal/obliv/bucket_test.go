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

func (t *tier) bind() *Buckets {
	b := new(Buckets)
	b.Bind(t.key, t.tag, t.op, t.aux, t.data, t.z, t.bs)
	return b
}

// refScan is Buckets.Scan by the oracle.
func (t *tier) refScan(bucket int, id uint64, obj []byte, write uint8) {
	lo, hi := bucket*t.z, (bucket+1)*t.z
	mw, mrw := make([]uint64, t.z), make([]uint64, t.z)
	refBucketMasks(id, t.key[lo:hi], t.tag[lo:hi], t.op[lo:hi], t.aux[lo:hi], write, mw, mrw)
	refFusedBucket(obj, t.data[lo*t.bs:hi*t.bs], t.bs, mw, mrw)
}

// plant shapes the rows of one bucket after a named pattern: which slots
// hold a request for id, and whether tag/op/aux are clean 0/1 bytes.
func (t *tier) plant(r *rand.Rand, pattern string, bucket int, id uint64, write uint8) {
	lo := bucket * t.z
	for j := lo; j < lo+t.z; j++ {
		if pattern != "dirty" { // clean rows: occupied reads or writes of other keys
			t.tag[j], t.op[j], t.aux[j] = uint8(r.Intn(2)), uint8(r.Intn(2))*write, 0
		}
	}
	hit := func(j int, op uint8) { t.key[lo+j], t.tag[lo+j], t.op[lo+j] = id, 1, op }
	switch pattern {
	case "one-read":
		hit(r.Intn(t.z), write^1)
	case "one-write":
		hit(r.Intn(t.z), write)
	case "several", "dirty":
		// More than one match at once, reads and writes interleaved (and, for
		// dirty, tag/op/aux bytes drawn from all of 0…255): the equivalence
		// must not lean on the ≤1-match invariant of a real table.
		for j := 0; j < t.z; j++ {
			if r.Intn(3) == 0 {
				t.key[lo+j] = id
			}
		}
	}
}

func requireSameTier(t *testing.T, what string, got, want *tier) {
	t.Helper()
	for _, col := range []struct {
		name      string
		got, want interface{}
	}{{"key", got.key, want.key}, {"tag", got.tag, want.tag}, {"op", got.op, want.op}, {"aux", got.aux, want.aux}, {"data", got.data, want.data}} {
		if !reflect.DeepEqual(col.got, col.want) {
			t.Fatalf("%s: column %s differs from the slot-major reference", what, col.name)
		}
	}
}

var scanPatterns = []string{"none", "one-read", "one-write", "several", "dirty"}

// TestScanMatchesSlotMajor: every body this host has — not only the one
// Scan dispatches to — leaves the object, the scanned bucket (aux and data)
// and its untouched neighbours bit-for-bit as the slot-major oracle does, at
// block sizes on and off the 160/32/8-byte steps, bucket sizes on and off the
// four-slot key step, unaligned columns, and with and without a bucket to warm.
func TestScanMatchesSlotMajor(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, bs := range []int{1, 7, 8, 31, 32, 33, 100, 128, 159, 160, 161, 192, 320, 333, 4096} {
		for _, z := range []int{1, 4, 20, 36, 98} {
			for pi, pattern := range scanPatterns {
				id, write := r.Uint64(), uint8(1)
				if pattern == "dirty" {
					write = uint8(r.Intn(256))
				}
				off := 1 + pi
				seed := randomTier(r, 3, z, bs, off)
				seed.plant(r, pattern, 1, id, write)
				obj0 := unaligned(r, bs, off)

				want, wantObj := seed.clone(off), append([]byte(nil), obj0...)
				want.refScan(1, id, wantObj, write)
				for _, k := range kernels() {
					for _, warm := range []int{-1, 0, 2} {
						got, obj := seed.clone(off), append(make([]byte, off), obj0...)[off:]
						got.bind().scan(k, 1, id, obj, write, warm)
						what := fmt.Sprintf("%v: bs=%d z=%d %s warm=%d", k, bs, z, pattern, warm)
						if !bytes.Equal(obj, wantObj) {
							t.Fatalf("%s: object differs from the slot-major reference", what)
						}
						requireSameTier(t, what, got, want)
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

// exchangeMatches runs the block pass of every body on preset mask words
// and reports the first that differs from the oracle ("" if none).
func exchangeMatches(bs, z int, mw, mrw []uint64, obj0 []byte, seed *tier, off int) string {
	want, wantObj := seed.clone(off), append([]byte(nil), obj0...)
	refFusedBucket(wantObj, want.data[z*bs:2*z*bs], bs, mw, mrw)
	for _, k := range kernels() {
		got, obj := seed.clone(off), append(make([]byte, off), obj0...)[off:]
		b := got.bind()
		copy(b.mw, mw)
		copy(b.mrw, mrw)
		b.exchange(k, 1, 0, 0, obj, 0, -1)
		if !bytes.Equal(obj, wantObj) || !bytes.Equal(got.data, want.data) {
			return k.String()
		}
		if !reflect.DeepEqual(b.mw, mw) || !reflect.DeepEqual(b.mrw, mrw) {
			return k.String() + " (mask vector modified)"
		}
	}
	return ""
}

// TestExchangeMatchesSlotMajorForAnyMasks: the block pass of every body is
// the select identity bit by bit — for arbitrary mask words, not only the
// all-ones/zero ones a key pass produces — and, for condition-derived masks,
// the loop of one FusedAccess per slot it replaced.
func TestExchangeMatchesSlotMajorForAnyMasks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, bs := range []int{1, 7, 8, 16, 24, 31, 32, 33, 100, 128, 160, 161, 200, 320, 4096} {
		for _, z := range []int{1, 4, 8, 12, 16, 20, 36, 98, 128} {
			for pi, pattern := range []string{"none", "one-read", "one-write", "several", "arbitrary"} {
				mw, mrw, cw, cr := condMasks(pattern, z, r)
				off := 1 + pi%7
				seed, obj0 := randomTier(r, 3, z, bs, off), unaligned(r, bs, off)
				if cw != nil {
					o, s := append([]byte(nil), obj0...), append([]byte(nil), seed.data[z*bs:2*z*bs]...)
					wantObj, wantSlots := append([]byte(nil), o...), append([]byte(nil), s...)
					refFusedBucket(wantObj, wantSlots, bs, mw, mrw)
					for j := range cw {
						FusedAccess(cw[j], cr[j], o, s[j*bs:(j+1)*bs])
					}
					if !bytes.Equal(o, wantObj) || !bytes.Equal(s, wantSlots) {
						t.Fatalf("oracle disagrees with the FusedAccess loop: bs=%d z=%d %s", bs, z, pattern)
					}
				}
				if bad := exchangeMatches(bs, z, mw, mrw, obj0, seed, off); bad != "" {
					t.Fatalf("%s: bs=%d z=%d %s: result differs from slot-major reference", bad, bs, z, pattern)
				}
			}
		}
	}
}

// checkScan derives a whole case from (seed, bs, z) — a keyed scan and a
// block pass on arbitrary masks — and reports whether every body matches
// the oracle.
func checkScan(seed int64, bs, z int) bool {
	r := rand.New(rand.NewSource(seed))
	off := r.Intn(8)
	id, write := r.Uint64(), uint8(r.Intn(2))
	tr := randomTier(r, 3, z, bs, off)
	tr.plant(r, scanPatterns[r.Intn(len(scanPatterns))], 1, id, write)
	obj0 := unaligned(r, bs, off)
	want, wantObj := tr.clone(off), append([]byte(nil), obj0...)
	want.refScan(1, id, wantObj, write)
	for _, k := range kernels() {
		got, obj := tr.clone(off), append(make([]byte, off), obj0...)[off:]
		got.bind().scan(k, 1, id, obj, write, r.Intn(4)-1)
		if !bytes.Equal(obj, wantObj) || !reflect.DeepEqual(got, want) {
			return false
		}
	}
	mw, mrw, _, _ := condMasks("arbitrary", z, r)
	return exchangeMatches(bs, z, mw, mrw, obj0, tr, off) == ""
}

func TestScanQuick(t *testing.T) {
	prop := func(seed int64, bs uint16, z uint8) bool {
		return checkScan(seed, 1+int(bs)%400, 1+int(z)%135)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func FuzzFusedBucket(f *testing.F) {
	f.Add(int64(1), uint16(160), uint8(36))
	f.Add(int64(2), uint16(160), uint8(8))
	f.Add(int64(3), uint16(33), uint8(1))
	f.Add(int64(4), uint16(7), uint8(0))
	f.Add(int64(5), uint16(4096), uint8(3))
	f.Add(int64(6), uint16(160), uint8(98))
	f.Add(int64(7), uint16(33), uint8(134))
	f.Add(int64(8), uint16(319), uint8(19))
	f.Fuzz(func(t *testing.T, seed int64, bs uint16, z uint8) {
		if !checkScan(seed, 1+int(bs)%5000, 1+int(z)%135) {
			t.Fatalf("a kernel body differs from the slot-major reference: seed=%d bs=%d z=%d", seed, 1+int(bs)%5000, 1+int(z)%135)
		}
	})
}

// TestKeyPassEveryLaneSplit covers every lane/tail split (z = 1…132) of the
// key pass on every body, with several keys equal to id at once and tag, op
// and aux bytes drawn from more than {0, 1}; stale mask scratch must be
// overwritten.
func TestKeyPassEveryLaneSplit(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for z := 1; z <= 132; z++ {
		for trial := 0; trial < 12; trial++ {
			id, off := r.Uint64(), 1+trial%5
			write := uint8(1)
			if trial%4 == 3 {
				write = uint8(r.Intn(256))
			}
			seed := randomTier(r, 2, z, 8, off)
			seed.plant(r, []string{"several", "dirty"}[trial%2], 1, id, write)
			want := seed.clone(off)
			wantMw, wantMrw := make([]uint64, z), make([]uint64, z)
			refBucketMasks(id, want.key[z:], want.tag[z:], want.op[z:], want.aux[z:], write, wantMw, wantMrw)
			for _, k := range kernels() {
				got := seed.clone(off)
				b := got.bind()
				for j := range b.mw {
					b.mw[j], b.mrw[j] = r.Uint64(), r.Uint64()
				}
				obj := make([]byte, 8)
				b.scan(k, 1, id, obj, write, -1)
				if !reflect.DeepEqual(b.mw, wantMw) || !reflect.DeepEqual(b.mrw, wantMrw) || !bytes.Equal(got.aux, want.aux) {
					t.Fatalf("%v: z=%d trial=%d: masks or found bits differ from the reference", k, z, trial)
				}
			}
		}
	}
}

func TestBucketsShapeMismatchPanics(t *testing.T) {
	ok := func() *Buckets { return randomTier(rand.New(rand.NewSource(1)), 2, 2, 8, 0).bind() }
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
		"zero z":          func() { new(Buckets).Bind(nil, nil, nil, nil, nil, 0, 8) },
		"object length":   func() { ok().Scan(0, 1, make([]byte, 7), 1, -1) },
		"bucket":          func() { ok().Scan(2, 1, make([]byte, 8), 1, -1) },
		"negative bucket": func() { ok().Scan(-1, 1, make([]byte, 8), 1, -1) },
		"warm":            func() { ok().Scan(0, 1, make([]byte, 8), 1, 2) },
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
	t.Logf("bodies on this host: %v; Scan runs %s", ks, Kernel())
}

// BenchmarkBucketsScan is the kernel alone — one cached bucket against one
// object block, no hashing, no partition stream — on every body the host
// has, at the ledger's block size and the bucket sizes of scan_heavy's table.
func BenchmarkBucketsScan(b *testing.B) {
	for _, z := range []int{4, 20} {
		for _, k := range kernels() {
			b.Run(fmt.Sprintf("z=%d/%v", z, k), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				tr := randomTier(r, 8, z, 160, 0)
				tr.data = append(make([]byte, 0, len(tr.data)), tr.data...) // aligned, as a real tier's is
				bk, obj := tr.bind(), make([]byte, 160)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bk.scan(k, i&7, uint64(i), obj, 1, -1)
				}
			})
		}
	}
}
