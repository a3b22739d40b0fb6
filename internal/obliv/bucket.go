package obliv

// Buckets is one tier of a hash table as the subORAM scan's kernel reads it:
// the columnar request rows of n buckets of z slots each, slot j of bucket b
// at row b·z + j, its value block at data[(b·z+j)·blockSize:]. Bind fixes
// the shape. A Buckets also owns the per-slot mask scratch of the (at most
// two) objects one step of Tiers.ScanRun scans, so each scan worker needs
// its own.
type Buckets struct {
	key          []uint64
	tag, op, aux []uint8
	data         []byte
	z, blockSize int
	n            int      // buckets
	mw, mrw      []uint64 // a step's first object's z mask words each
	mwb, mrwb    []uint64 // its second object's, in a pair
}

// Bind points b at a tier's columns: len(key) rows in buckets of z slots,
// blockSize bytes of data per row. The columns are aliased, not copied — a
// scan writes aux and data in place. The mask scratch grows only when z does.
func (b *Buckets) Bind(key []uint64, tag, op, aux []uint8, data []byte, z, blockSize int) {
	rows := len(key)
	if z <= 0 || blockSize <= 0 || rows%z != 0 ||
		len(tag) != rows || len(op) != rows || len(aux) != rows || len(data) != rows*blockSize {
		panic("obliv: Buckets shape mismatch")
	}
	b.key, b.tag, b.op, b.aux, b.data = key, tag, op, aux, data
	b.z, b.blockSize, b.n = z, blockSize, rows/z
	if cap(b.mw) < z {
		m := make([]uint64, 4*z)
		b.mw, b.mrw, b.mwb, b.mrwb = m[:z:z], m[z:2*z:2*z], m[2*z:3*z:3*z], m[3*z:]
	}
	b.mw, b.mrw, b.mwb, b.mrwb = b.mw[:z], b.mrw[:z], b.mwb[:z], b.mrwb[:z]
}

// isa names a body of the bucket kernel.
type isa uint8

const (
	isaGo       isa = 1 + iota // portable Go: the specification
	isaAVX2                    // 32-byte lanes, and/xor select
	isaAVX512VL                // 32-byte lanes, VPTERNLOGQ select (no 512-bit register)
)

func (k isa) String() string { return [...]string{"", "go", "avx2", "avx512vl"}[k] }

// kernel is the body ScanRun runs: the last — widest — of the bodies this
// platform has, read from CPUID once at package init. A public property of
// the platform, never of data.
var kernel = func() isa { ks := kernels(); return ks[len(ks)-1] }()

// Kernel names the bucket-kernel body this process scans with: "go",
// "avx2" or "avx512vl".
func Kernel() string { return kernel.String() }

// Kernels names every body this platform can run, narrowest first; the last
// is Kernel's.
func Kernels() []string {
	var names []string
	for _, k := range kernels() {
		names = append(names, k.String())
	}
	return names
}

// Tiers is one scan worker's view of a whole two-tier table: the tier-1
// buckets and the tier-2 ("stash") buckets every stored object is scanned
// against. Bind each tier once per batch; ScanRun then takes runs of
// objects.
type Tiers struct {
	T1, T2 Buckets
	body   isa // the kernel body ScanRun runs; unset means the platform's widest
}

// Use makes t scan with the named body instead of the platform's widest, so
// a differential can put every body the host has through the same scan. It
// panics on a body the platform lacks.
func (t *Tiers) Use(name string) {
	for _, k := range kernels() {
		if k.String() == name {
			t.body = k
			return
		}
	}
	panic("obliv: no kernel body " + name + " on this platform")
}

// Step is how many consecutive objects of a run one step of ScanRun takes:
// two when tier 2 is a single bucket — every object then scans that one
// bucket, and a pair streams it once — and one otherwise. A function of the
// bound geometry alone; a run of odd length ends in a single.
func (t *Tiers) Step() int {
	if t.T2.n == 1 {
		return 2
	}
	return 1
}

// ScanRun applies the double oblivious compare-and-set of the paper's Fig. 7
// step ➋ between each object of a run and every slot of both buckets it
// looks up: object i, identifier ids[i] and value objs[i·blockSize:], against
// tier-1 bucket b1[i] and tier-2 bucket b2[i]. The result is bit-for-bit that
// of scanning the objects one after another, each against its tier-1 bucket
// and then its tier-2 bucket, slot by slot.
//
// Against one bucket an object takes two fixed passes. The key pass derives
// a mask pair for each slot j,
//
//	mrw[j] = all-ones iff key[j] == id and tag[j] is set (the slot holds a
//	         request for this object), else 0
//	mw[j]  = mrw[j] iff op[j] == write, else 0
//
// and sets the found bit aux[j] = 1 where mrw[j] is set (other aux bytes
// keep their value). The block pass then selects, for j = 0, 1, … in order,
//
//	obj'    = mw[j]  ? slot_j : obj        = obj    ^ (mw[j]  & (obj^slot_j))
//	slot_j' = mrw[j] ? obj    : slot_j     = slot_j ^ (mrw[j] & (obj^slot_j))
//
// bit by bit, each 8-byte mask word repeating along the block: a matching
// write exchanges the two blocks, a matching read copies the object into the
// slot. The walk is column-major — a column of the object is loaded once,
// the slots' columns stream through it in slot order, and the object column
// is stored once.
//
// A step takes Step() objects. For a pair (i, i+1) sharing the one tier-2
// bucket, all four key passes run first (masks depend only on key, tag and
// op, which no pass writes, and a found bit is only ever set), then each
// column of both objects is held at once: i's tier-1 slots stream through
// i's, i+1's tier-1 slots through i+1's, and then each tier-2 slot is loaded
// once, meets i, then i+1, and is stored once. An (object, slot) step depends
// only on the object after its earlier slots and the slot after its earlier
// objects, and every such order is the sequential one — two objects in one
// tier-1 bucket still meet it in turn — so the bytes are the sequential
// loop's. The vector bodies prefetch the next step's tier-1 buckets, an
// address the scan is about to reveal anyway; that changes no result.
//
// Obliviousness: the schedule is a function of len(ids), the bound geometry
// and which body the platform selected. Every slot's key, tag, op and aux
// byte, every object byte and every slot byte of the buckets looked up is
// read and written whatever they hold; keys, tags and ops reach only compare
// and AND operands, masks only AND or bitwise-select operands. The addresses
// touched are those of the buckets b1[i], b2[i], which the scan reveals by
// design (a bucket index is a PRF output under the batch's own key).
//
// Both tiers must be bound with one block size; b1, b2 and objs must match
// ids in length and every bucket be in range.
func (t *Tiers) ScanRun(ids []uint64, b1, b2 []uint32, objs []byte, write uint8) {
	n := len(ids)
	if len(b1) != n || len(b2) != n || t.T1.blockSize != t.T2.blockSize || len(objs) != n*t.T1.blockSize {
		panic("obliv: Tiers.ScanRun shape mismatch")
	}
	for i := range ids {
		if uint(b1[i]) >= uint(t.T1.n) || uint(b2[i]) >= uint(t.T2.n) {
			panic("obliv: Tiers.ScanRun bucket out of range")
		}
	}
	k := t.body
	if k == 0 {
		k = kernel
	}
	t.run(k, ids, b1, b2, objs, write)
}

// run is ScanRun on body k: per step, the portable key pass over the slots
// the vector one leaves (all of them, for isaGo), then pass.
func (t *Tiers) run(k isa, ids []uint64, b1, b2 []uint32, objs []byte, write uint8) {
	t1, t2, bs := &t.T1, &t.T2, t.T1.blockSize
	lanes1, lanes2 := 0, 0
	if k != isaGo {
		lanes1, lanes2 = t1.z&^3, t2.z&^3
	}
	n, step := len(ids), t.Step()
	for i := 0; i < n; i += step {
		a, b := i, i
		pair := step == 2 && i+1 < n
		if pair {
			b = i + 1
		}
		r1a, r1b, r2 := int(b1[a])*t1.z, int(b1[b])*t1.z, int(b2[a])*t2.z
		if lanes1 < t1.z {
			t1.masksFrom(r1a+lanes1, ids[a], write, t1.mw[lanes1:], t1.mrw[lanes1:])
		}
		if lanes2 < t2.z {
			t2.masksFrom(r2+lanes2, ids[a], write, t2.mw[lanes2:], t2.mrw[lanes2:])
		}
		if pair && lanes1 < t1.z {
			t1.masksFrom(r1b+lanes1, ids[b], write, t1.mwb[lanes1:], t1.mrwb[lanes1:])
		}
		if pair && lanes2 < t2.z {
			t2.masksFrom(r2+lanes2, ids[b], write, t2.mwb[lanes2:], t2.mrwb[lanes2:])
		}
		next := min(i+step, n-1)
		wa, wb := int(b1[next])*t1.z, -1
		if pair {
			wb = int(b1[min(next+1, n-1)]) * t1.z
		}
		t.pass(k, ids[a], ids[b], r1a, r1b, r2, objs[a*bs:(a+1)*bs], objs[b*bs:(b+1)*bs], write, wa, wb, lanes1, lanes2, pair)
	}
}

// pass finishes a step whose masks for the slots from lanes1 (tier 1) and
// lanes2 (tier 2) on are already in the scratch: on a vector body, one call
// runs the key passes over the first lanes slots, prefetches the tier-1 rows
// from wa and wb, and runs the block pass over every 32-byte column; the
// portable loop takes the bytes that leaves (the whole block for isaGo),
// each object through its tier-1 bucket and then its tier-2 bucket.
func (t *Tiers) pass(k isa, ida, idb uint64, r1a, r1b, r2 int, objA, objB []byte, write uint8, wa, wb, lanes1, lanes2 int, pair bool) {
	t1, t2, bs := &t.T1, &t.T2, t.T1.blockSize
	cols := 0
	if k != isaGo {
		cols = bs &^ 31
		scanLanes(t, ida, idb, r1a, r1b, r2, &objA[0], &objB[0], write, wa, wb, lanes1, lanes2, k == isaAVX512VL, pair)
	}
	if cols < bs {
		t1.words(objA, r1a, t1.mw, t1.mrw, cols)
		t2.words(objA, r2, t2.mw, t2.mrw, cols)
		if pair {
			t1.words(objB, r1b, t1.mwb, t1.mrwb, cols)
			t2.words(objB, r2, t2.mwb, t2.mrwb, cols)
		}
	}
}

// masksFrom is the portable key pass, and the specification of the vector
// one: mask pairs and found bits for the len(mw) rows from row.
func (b *Buckets) masksFrom(row int, id uint64, write uint8, mw, mrw []uint64) {
	hi := row + len(mw)
	key, tag, op, aux := b.key[row:hi], b.tag[row:hi], b.op[row:hi], b.aux[row:hi]
	mrw = mrw[:len(mw)]
	for j := range mw {
		eq := EqU64(key[j], id) & tag[j]
		mrw[j] = Mask64(eq)
		mw[j] = Mask64(eq & EqU8(op[j], write))
		CondSetU8(eq, &aux[j], 1)
	}
}

// words is the portable block pass of obj against the bucket whose first
// row is row, from byte offset from on.
func (b *Buckets) words(obj []byte, row int, mw, mrw []uint64, from int) {
	lo := row * b.blockSize
	fusedBucketWords(obj, b.data[lo:lo+b.z*b.blockSize], b.blockSize, mw, mrw, from)
}

// fusedBucketWords is the portable block pass, and the specification the
// vector lanes are tested against: 8-byte columns from byte offset from to
// the last whole word, then single-byte columns.
func fusedBucketWords(obj, slots []byte, blockSize int, mw, mrw []uint64, from int) {
	mrw = mrw[:len(mw)]
	c := from
	for ; c+8 <= blockSize; c += 8 {
		o := leU64(obj[c:])
		p := c
		for j, w := range mw {
			cell := slots[p : p+8]
			s := leU64(cell)
			d := o ^ s
			o ^= w & d
			putLeU64(cell, s^(mrw[j]&d))
			p += blockSize
		}
		putLeU64(obj[c:], o)
	}
	for ; c < blockSize; c++ {
		o := obj[c]
		p := c
		sh := 8 * uint(c&7) // the mask word repeats along the block
		for j, w := range mw {
			s := slots[p]
			d := o ^ s
			o ^= byte(w>>sh) & d
			slots[p] = s ^ (byte(mrw[j]>>sh) & d)
			p += blockSize
		}
		obj[c] = o
	}
}
