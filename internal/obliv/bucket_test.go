package obliv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refFusedBucket is the slot-major, byte-at-a-time oracle: slot after slot,
// each mask word repeating along the block.
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

// bucketBodies are the implementations under test: the dispatching entry
// point (AVX2 lanes where the CPU has them) and the portable word loop on
// its own, so both run on an amd64 host.
var bucketBodies = []struct {
	name string
	fn   func(obj, slots []byte, blockSize int, mw, mrw []uint64)
}{
	{"FusedBucket", FusedBucket},
	{"words", func(obj, slots []byte, blockSize int, mw, mrw []uint64) {
		fusedBucketWords(obj, slots, blockSize, mw, mrw, 0)
	}},
}

// bucketMasks fills mw/mrw for one named pattern; the condition-derived
// patterns also return the (cw, cr) pairs FusedAccess would be called with.
func bucketMasks(pattern string, z int, r *rand.Rand) (mw, mrw []uint64, cw, cr []uint8) {
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
		// More than one match at once, reads and writes interleaved: the
		// equivalence must not lean on the ≤1-match invariant of a real table.
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

// unaligned returns n random bytes starting off bytes into a fresh
// allocation, so kernels see every start alignment.
func unaligned(r *rand.Rand, n, off int) []byte {
	b := make([]byte, off+n)
	r.Read(b)
	return b[off : off+n : off+n]
}

func TestFusedBucketMatchesSlotMajor(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	blockSizes := []int{1, 7, 8, 16, 24, 31, 32, 33, 100, 128, 160, 161, 4096}
	patterns := []string{"none", "one-read", "one-write", "several", "arbitrary"}
	for _, bs := range blockSizes {
		// Every tier-1 capacity the geometry grid offers, and tier-2 buckets
		// from the legacy 36 to a 128-slot single bucket.
		for _, z := range []int{1, 4, 8, 12, 16, 36, 64, 98, 128} {
			for pi, pattern := range patterns {
				mw, mrw, cw, cr := bucketMasks(pattern, z, r)
				obj0 := unaligned(r, bs, 1+pi%7)
				slots0 := unaligned(r, z*bs, 3+pi%5)

				wantObj := append([]byte(nil), obj0...)
				wantSlots := append([]byte(nil), slots0...)
				refFusedBucket(wantObj, wantSlots, bs, mw, mrw)
				if cw != nil {
					// The loop FusedBucket replaces: one FusedAccess per slot.
					o := append([]byte(nil), obj0...)
					s := append([]byte(nil), slots0...)
					for j := range cw {
						FusedAccess(cw[j], cr[j], o, s[j*bs:(j+1)*bs])
					}
					if !bytes.Equal(o, wantObj) || !bytes.Equal(s, wantSlots) {
						t.Fatalf("oracle disagrees with the FusedAccess loop: bs=%d z=%d %s", bs, z, pattern)
					}
				}

				for _, body := range bucketBodies {
					obj := unaligned(r, bs, 1+pi%7)
					slots := unaligned(r, z*bs, 3+pi%5)
					copy(obj, obj0)
					copy(slots, slots0)
					mwIn := append([]uint64(nil), mw...)
					mrwIn := append([]uint64(nil), mrw...)
					body.fn(obj, slots, bs, mwIn, mrwIn)
					if !bytes.Equal(obj, wantObj) || !bytes.Equal(slots, wantSlots) {
						t.Fatalf("%s: bs=%d z=%d %s: result differs from slot-major reference", body.name, bs, z, pattern)
					}
					for j := range mw {
						if mwIn[j] != mw[j] || mrwIn[j] != mrw[j] {
							t.Fatalf("%s: bs=%d z=%d %s: mask vector modified", body.name, bs, z, pattern)
						}
					}
				}
			}
		}
	}
}

// checkFusedBucket derives a whole case from (seed, bs, z) and reports
// whether every body matches the oracle.
func checkFusedBucket(seed int64, bs, z int) bool {
	r := rand.New(rand.NewSource(seed))
	pattern := []string{"none", "one-read", "one-write", "several", "arbitrary"}[r.Intn(5)]
	if z == 0 {
		pattern = "none"
	}
	mw, mrw, _, _ := bucketMasks(pattern, z, r)
	obj0 := unaligned(r, bs, r.Intn(8))
	slots0 := unaligned(r, z*bs, r.Intn(8))
	wantObj := append([]byte(nil), obj0...)
	wantSlots := append([]byte(nil), slots0...)
	refFusedBucket(wantObj, wantSlots, bs, mw, mrw)
	for _, body := range bucketBodies {
		obj := append(make([]byte, 0, bs+1), obj0...)
		slots := append(make([]byte, 0, z*bs+1), slots0...)
		body.fn(obj, slots, bs, mw, mrw)
		if !bytes.Equal(obj, wantObj) || !bytes.Equal(slots, wantSlots) {
			return false
		}
	}
	return true
}

func TestFusedBucketQuick(t *testing.T) {
	prop := func(seed int64, bs uint16, z uint8) bool {
		return checkFusedBucket(seed, 1+int(bs)%400, int(z)%136)
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
	f.Add(int64(7), uint16(33), uint8(135))
	f.Fuzz(func(t *testing.T, seed int64, bs uint16, z uint8) {
		if !checkFusedBucket(seed, 1+int(bs)%5000, int(z)%136) {
			t.Fatalf("FusedBucket differs from the slot-major reference: seed=%d bs=%d z=%d", seed, 1+int(bs)%5000, int(z)%136)
		}
	})
}

func TestFusedBucketShapeMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"object length": func() { FusedBucket(make([]byte, 7), make([]byte, 16), 8, make([]uint64, 2), make([]uint64, 2)) },
		"slots length":  func() { FusedBucket(make([]byte, 8), make([]byte, 15), 8, make([]uint64, 2), make([]uint64, 2)) },
		"mask lengths":  func() { FusedBucket(make([]byte, 8), make([]byte, 16), 8, make([]uint64, 2), make([]uint64, 1)) },
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

// refBucketMasks is the key pass as the per-slot scan loop spelled it.
func refBucketMasks(id uint64, key []uint64, tag, op, aux []uint8, write uint8, mw, mrw []uint64) {
	for j := range key {
		eq := EqU64(key[j], id) & tag[j]
		isW := EqU8(op[j], write)
		mw[j] = Mask64(eq & isW)
		mrw[j] = Mask64(eq&Not(isW) | eq&isW)
		CondSetU8(eq, &aux[j], 1)
	}
}

// TestBucketMasksMatchesReference covers every lane/tail split (z = 0…132)
// with several keys equal to id at once and tag, op and aux bytes drawn
// from more than {0, 1}, at unaligned slice starts.
func TestBucketMasksMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for z := 0; z <= 132; z++ {
		for trial := 0; trial < 40; trial++ {
			id := r.Uint64()
			off := 1 + trial%5
			key := make([]uint64, off+z)[off:]
			tag, op, aux := unaligned(r, z, off), unaligned(r, z, off+1), unaligned(r, z, off+2)
			for j := range key {
				key[j] = r.Uint64()
				if r.Intn(3) == 0 {
					key[j] = id
				}
				if r.Intn(4) != 0 {
					tag[j], op[j], aux[j] = tag[j]&1, op[j]&1, aux[j]&1
				}
			}
			write := uint8(1)
			if trial%8 == 7 {
				write = uint8(r.Intn(256))
			}
			wantAux := append([]uint8(nil), aux...)
			wantMw, wantMrw := make([]uint64, z), make([]uint64, z)
			refBucketMasks(id, key, tag, op, wantAux, write, wantMw, wantMrw)

			mw, mrw := make([]uint64, off+z)[off:], make([]uint64, off+z)[off:]
			for j := range mw {
				mw[j], mrw[j] = r.Uint64(), r.Uint64() // stale scratch must be overwritten
			}
			BucketMasks(id, key, tag, op, aux, write, mw, mrw)
			for j := range key {
				if mw[j] != wantMw[j] || mrw[j] != wantMrw[j] || aux[j] != wantAux[j] {
					t.Fatalf("z=%d trial=%d slot %d: got mw=%#x mrw=%#x aux=%d, want %#x %#x %d",
						z, trial, j, mw[j], mrw[j], aux[j], wantMw[j], wantMrw[j], wantAux[j])
				}
			}
		}
	}
}
