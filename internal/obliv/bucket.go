package obliv

// Buckets is one tier of a hash table as the subORAM scan's kernel reads it:
// the columnar request rows of n buckets of z slots each, slot j of bucket b
// at row b·z + j, its value block at data[(b·z+j)·blockSize:]. Bind fixes
// the shape; Scan runs one bucket against one stored object. A Buckets also
// owns the per-slot mask scratch of the pass, so each scan worker needs its
// own.
type Buckets struct {
	key          []uint64
	tag, op, aux []uint8
	data         []byte
	z, blockSize int
	n            int      // buckets
	mw, mrw      []uint64 // z mask words each, rewritten by every Scan
	body         isa      // the kernel body Scan runs; unset means the platform's widest
}

// Bind points b at a tier's columns: len(key) rows in buckets of z slots,
// blockSize bytes of data per row. The columns are aliased, not copied — Scan
// writes aux and data in place. The mask scratch grows only when z does.
func (b *Buckets) Bind(key []uint64, tag, op, aux []uint8, data []byte, z, blockSize int) {
	rows := len(key)
	if z <= 0 || blockSize <= 0 || rows%z != 0 ||
		len(tag) != rows || len(op) != rows || len(aux) != rows || len(data) != rows*blockSize {
		panic("obliv: Buckets shape mismatch")
	}
	b.key, b.tag, b.op, b.aux, b.data = key, tag, op, aux, data
	b.z, b.blockSize, b.n = z, blockSize, rows/z
	if cap(b.mw) < z {
		b.mw, b.mrw = make([]uint64, z), make([]uint64, z)
	}
	b.mw, b.mrw = b.mw[:z], b.mrw[:z]
	if b.body == 0 {
		b.body = kernel
	}
}

// isa names a body of the bucket kernel.
type isa uint8

const (
	isaGo       isa = 1 + iota // portable Go: the specification
	isaAVX2                    // 32-byte lanes, and/xor select
	isaAVX512VL                // 32-byte lanes, VPTERNLOGQ select (no 512-bit register)
)

func (k isa) String() string { return [...]string{"", "go", "avx2", "avx512vl"}[k] }

// kernel is the body Scan runs: the last — widest — of the bodies this
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

// Use makes b scan with the named body instead of the platform's widest, so
// a differential can put every body the host has through the same scan. It
// panics on a body the platform lacks.
func (b *Buckets) Use(name string) {
	for _, k := range kernels() {
		if k.String() == name {
			b.body = k
			return
		}
	}
	panic("obliv: no kernel body " + name + " on this platform")
}

// Scan applies the double oblivious compare-and-set of the paper's Fig. 7
// step ➋ between the stored object (id, obj) and every slot of one bucket,
// in two fixed passes.
//
// The key pass derives a mask pair for each slot j of the bucket,
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
// every slot's column streams through it in slot order, and the object
// column is stored once. Columns never interact and each sees the slots in
// the order a slot-major loop of FusedAccess calls would, so the result is
// bit-for-bit that loop's.
//
// warm, when not negative, is a bucket of this tier the caller will scan
// soon (the next object's): the vector bodies prefetch its rows. It changes
// no result.
//
// Obliviousness: the schedule is a function of (z, blockSize) and of which
// body the platform selected. Every slot's key, tag, op and aux byte, every
// object byte and every slot byte is read once and written once whatever
// they hold; keys, tags and ops reach only compare and AND operands, masks
// only AND or bitwise-select operands. The addresses touched are those of
// bucket and warm, which the scan reveals by design (a bucket index is a
// PRF output under the batch's own key).
//
// len(obj) must equal the bound block size; bucket must be in range and
// warm at most the last bucket.
func (b *Buckets) Scan(bucket int, id uint64, obj []byte, write uint8, warm int) {
	if uint(bucket) >= uint(b.n) || warm >= b.n || len(obj) != b.blockSize {
		panic("obliv: Buckets.Scan out of range")
	}
	b.scan(b.body, bucket, id, obj, write, warm)
}

// scan is Scan on body k.
func (b *Buckets) scan(k isa, bucket int, id uint64, obj []byte, write uint8, warm int) {
	// The vector bodies' key pass compares four slots a step; the portable
	// loop takes the slots they leave (all of them for isaGo).
	lanes := 0
	if k != isaGo {
		lanes = b.z &^ 3
	}
	if lanes < b.z {
		b.masksFrom(bucket*b.z+lanes, id, write, b.mw[lanes:], b.mrw[lanes:])
	}
	b.exchange(k, bucket, lanes, id, obj, write, warm)
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

// exchange finishes a Scan whose masks for the slots from lanes on are
// already in b.mw/b.mrw: on a vector body, one call runs the key pass over
// the first lanes slots and the block pass over every 32-byte column of all
// z; the portable loop takes the bytes that leaves (the whole block for
// isaGo).
func (b *Buckets) exchange(k isa, bucket, lanes int, id uint64, obj []byte, write uint8, warm int) {
	cols := 0
	if k != isaGo {
		cols = b.blockSize &^ 31
		scanBucketLanes(b, bucket*b.z, lanes, id, &obj[0], write, warm*b.z, k == isaAVX512VL)
	}
	if cols < b.blockSize {
		lo := bucket * b.z * b.blockSize
		fusedBucketWords(obj, b.data[lo:lo+b.z*b.blockSize], b.blockSize, b.mw, b.mrw, cols)
	}
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
