package store

import (
	"encoding/binary"

	"snoopy/internal/obliv"
	"snoopy/internal/trace"
)

// BySlot routes records for obliv.Distribute: Sub holds the destination
// slot plus one, zero meaning none, so the destination travels with the
// record through every swap at no extra cost.
type BySlot struct{ *Requests }

// Targets implements obliv.Router; Sub == 0 wraps to obliv.NoTarget.
func (s BySlot) Targets(dst []uint64, i int) {
	sub := s.Sub[i : i+len(dst)]
	for t := range dst {
		dst[t] = uint64(sub[t]) - 1
	}
}

// OClearRow obliviously zeroes record i — making it a dummy read of key 0 —
// iff c == 1.
func (r *Requests) OClearRow(c uint8, i int) {
	r.Rec.Record(trace.KindCopyRow, i, i)
	m8, m64 := obliv.MaskByte(c^1), obliv.Mask64(c^1)
	r.Op[i] &= m8
	r.Key[i] &= m64
	r.Sub[i] &= uint32(m64)
	r.Tag[i] &= m8
	r.Aux[i] &= m8
	r.Seq[i] &= m64
	r.Client[i] &= m64
	// The value block a word at a time, then its tail.
	b := r.Block(i)
	w := len(b) &^ 7
	for k := 0; k < w; k += 8 {
		binary.LittleEndian.PutUint64(b[k:], binary.LittleEndian.Uint64(b[k:])&m64)
	}
	for k := w; k < len(b); k++ {
		b[k] &= m8
	}
}

// ScatterRuns turns sorted, marked records into a padded table of groups×z
// slots. It yields what appending z dummies to every group, sorting them
// along and keeping each group's first z would, without sorting rows whose
// place is already known.
//
// On entry r's records are sorted so that equal Sub values (the group
// index, < groups) are adjacent and ascending, and keep marks at most z
// records of each group; r's backing store beyond Len() is zeroed, with
// Cap() ≥ groups·z. On return r has exactly groups·z records: group g's
// kept records, in order, at the front of slots [g·z, (g+1)·z), Sub = g;
// the rest of those slots are dummy reads (every other column zero) keyed
// padBase + g·padStride + 0, 1, … in slot order; unkept records are gone.
//
// Obliviousness: Compact and Distribute run fixed schedules in the public
// lengths; both linear passes touch every record in index order. The kept
// count, ranks and destination slots — all secret — only feed branch-free
// masks and swap conditions.
func (r *Requests) ScatterRuns(keep []uint8, groups, z int, padBase, padStride uint64) {
	var kept uint64
	for _, k := range keep {
		kept += uint64(k)
	}
	obliv.Compact(r, keep)

	// The kept records now lead, still sorted: a record's slot is its
	// group's base plus its rank within the group's run.
	var rank uint64
	prev := ^uint64(0)
	for i := range r.Sub {
		g := uint64(r.Sub[i])
		rank = obliv.SelectU64(obliv.EqU64(g, prev), 0, rank+1)
		prev = g
		live := obliv.LtU64(uint64(i), kept)
		r.OClearRow(obliv.Not(live), i)
		r.Sub[i] = uint32(obliv.Mask64(live) & (g*uint64(z) + rank + 1))
	}

	r.Resize(groups * z)
	obliv.Distribute(BySlot{r})

	for g := 0; g < groups; g++ {
		pad := padBase + uint64(g)*padStride
		for j := g * z; j < (g+1)*z; j++ {
			r.Touch(j)
			blank := obliv.EqU64(uint64(r.Sub[j]), 0)
			obliv.CondSetU64(blank, &r.Key[j], pad)
			pad += uint64(blank)
			r.Sub[j] = uint32(g)
		}
	}
}
