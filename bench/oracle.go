package main

import "encoding/binary"

// Values carry their own provenance: the first word is the key, and every
// following word the sequence number of the write that produced the value
// (0 for the loaded value). The oracle can therefore tell, from a reply
// alone, which write the store believes was last.

func fillValue(dst []byte, key, seq uint64) {
	binary.LittleEndian.PutUint64(dst, key)
	for off := 8; off+8 <= len(dst); off += 8 {
		binary.LittleEndian.PutUint64(dst[off:], seq)
	}
}

// parseValue returns the sequence number v carries, and whether v is a
// well-formed value for key.
func parseValue(v []byte, key uint64) (seq uint64, ok bool) {
	if len(v) < 16 || binary.LittleEndian.Uint64(v) != key {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v[8:])
	for off := 16; off+8 <= len(v); off += 8 {
		if binary.LittleEndian.Uint64(v[off:]) != seq {
			return 0, false
		}
	}
	return seq, true
}

// oracle is the plaintext reference model of the store's epoch semantics
// for a dense key space [0,n): every reply of an epoch, read or write,
// carries the value the key had before the epoch, and of the epoch's
// writes to one key the last submitted wins.
type oracle struct {
	cur     []uint64 // sequence number of each key's current value
	staged  []uint64 // this epoch's winning write per touched key
	touched []uint64
}

func newOracle(n int) *oracle {
	return &oracle{cur: make([]uint64, n), staged: make([]uint64, n)}
}

// stage records a write submitted in the current epoch. Writes are staged
// in submission order, so the last one staged wins.
func (o *oracle) stage(key, seq uint64) {
	if o.staged[key] == 0 {
		o.touched = append(o.touched, key)
	}
	o.staged[key] = seq
}

// check reports whether a reply of the current epoch is right: found, and
// the pre-epoch value of key.
func (o *oracle) check(key uint64, v []byte, found bool) bool {
	seq, ok := parseValue(v, key)
	return ok && found && seq == o.cur[key]
}

// endEpoch applies the staged writes.
func (o *oracle) endEpoch() {
	for _, k := range o.touched {
		o.cur[k] = o.staged[k]
		o.staged[k] = 0
	}
	o.touched = o.touched[:0]
}

// checkOpen is the weaker check for the open loop, where the client cannot
// know epoch boundaries. The reply to operation i (sequence base+i+1) must
// carry a value from before the run (seq ≤ base: loaded, or written during
// warm-up) or the value of an earlier write of the run to the same key. A
// reply's value is pre-epoch state, so its writer was submitted before i.
func checkOpen(ops []op, i int, base uint64, v []byte, found bool) bool {
	seq, ok := parseValue(v, ops[i].key)
	if !ok || !found {
		return false
	}
	if seq <= base {
		return true
	}
	w := int(seq - base - 1)
	return w < i && ops[w].write && ops[w].key == ops[i].key
}
