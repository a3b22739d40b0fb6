package obliv

// BucketMasks is the key pass that precedes FusedBucket: from one bucket's
// columnar request rows it derives, for every slot j, the mask pair
//
//	mrw[j] = all-ones iff key[j] == id and tag[j] is set (the slot holds a
//	         request for this object), else 0
//	mw[j]  = mrw[j] iff op[j] == write, else 0
//
// and sets the found bit aux[j] = 1 where mrw[j] is set (other aux bytes keep
// their value). Branch-free, one fixed pass over len(key) slots: keys, tags
// and ops only ever reach compare and AND operands. All seven slices must
// have len(key) elements.
func BucketMasks(id uint64, key []uint64, tag, op, aux []uint8, write uint8, mw, mrw []uint64) {
	z := len(key)
	if len(tag) != z || len(op) != z || len(aux) != z || len(mw) != z || len(mrw) != z {
		panic("obliv: BucketMasks shape mismatch")
	}
	for j := bucketMasksLanes(id, key, tag, op, aux, write, mw, mrw); j < z; j++ {
		eq := EqU64(key[j], id) & tag[j]
		mrw[j] = Mask64(eq)
		mw[j] = Mask64(eq & EqU8(op[j], write))
		CondSetU8(eq, &aux[j], 1)
	}
}

// FusedBucket streams one whole hash-table bucket through a stored object
// block (paper §5, Fig. 7 step ➋): slots holds len(mw) slot blocks of
// blockSize bytes each, and slot j is applied with the mask pair
// (mw[j], mrw[j]) exactly as FusedAccess would apply it,
//
//	obj'    = obj    ^ (mw[j]  & (obj^slot_j))
//	slot_j' = slot_j ^ (mrw[j] & (obj^slot_j))
//
// for j = 0, 1, …, in that order, each 8-byte mask word repeating along the
// block. The walk is column-major: a column of the object is loaded once,
// every slot's column is streamed through it in slot order, and the object
// column is stored once. Columns never interact and each column sees the
// slots in the same order as a slot-major loop of FusedAccess calls, so the
// result is bit-for-bit that loop's — for any mask words, not only
// all-ones/zero, and however many are set.
//
// Obliviousness: the schedule is a function of (len(mw), blockSize) alone.
// Every object byte and every slot byte is read once and written once
// whatever the masks hold; the masks are only ever AND operands.
//
// len(obj) must equal blockSize, len(mw) must equal len(mrw), and
// len(slots) must equal len(mw)·blockSize.
func FusedBucket(obj, slots []byte, blockSize int, mw, mrw []uint64) {
	if len(obj) != blockSize || len(mw) != len(mrw) || len(slots) != len(mw)*blockSize {
		panic("obliv: FusedBucket shape mismatch")
	}
	fusedBucketWords(obj, slots, blockSize, mw, mrw, fusedBucketLanes(obj, slots, blockSize, mw, mrw))
}

// fusedBucketWords is the portable body, and the specification the SIMD
// lanes are tested against: 8-byte columns from byte offset from to the
// last whole word, then single-byte columns.
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
