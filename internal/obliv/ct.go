package obliv

import "math/bits"

// Constant-time predicates and conditional moves. All functions in this file
// are branch-free: control flow never depends on argument values. Conditions
// are uint8 values that must be exactly 0 or 1.

// Mask64 expands a 0/1 condition to a 64-bit mask (0 or all-ones).
func Mask64(c uint8) uint64 { return -uint64(c & 1) }

// MaskByte expands a 0/1 condition to an 8-bit mask (0x00 or 0xFF).
func MaskByte(c uint8) byte { return -(c & 1) }

// LtU64 returns 1 if x < y, else 0: the borrow of x − y, one SUB/SBB pair
// whose execution time does not depend on the operands.
func LtU64(x, y uint64) uint8 {
	_, b := bits.Sub64(x, y, 0)
	return uint8(b)
}

// GtU64 returns 1 if x > y, else 0.
func GtU64(x, y uint64) uint8 { return LtU64(y, x) }

// GeU64 returns 1 if x >= y, else 0.
func GeU64(x, y uint64) uint8 { return LtU64(x, y) ^ 1 }

// EqU64 returns 1 if x == y, else 0.
func EqU64(x, y uint64) uint8 {
	z := x ^ y
	return uint8(1 - ((z | -z) >> 63))
}

// NeqU64 returns 1 if x != y, else 0.
func NeqU64(x, y uint64) uint8 { return 1 - EqU64(x, y) }

// EqU8 returns 1 if x == y, else 0.
func EqU8(x, y uint8) uint8 { return EqU64(uint64(x), uint64(y)) }

// And returns a&b for 0/1 conditions.
func And(a, b uint8) uint8 { return a & b }

// Or returns a|b for 0/1 conditions.
func Or(a, b uint8) uint8 { return a | b }

// Not returns 1-a for a 0/1 condition.
func Not(a uint8) uint8 { return a ^ 1 }

// SelectU64 returns y if c == 1, else x.
func SelectU64(c uint8, x, y uint64) uint64 {
	m := Mask64(c)
	return x ^ (m & (x ^ y))
}

// CondSetU64 sets *dst = src if c == 1 (the paper's oblivious
// compare-and-set on a machine word).
func CondSetU64(c uint8, dst *uint64, src uint64) {
	m := Mask64(c)
	*dst ^= m & (*dst ^ src)
}

// CondSwapU64 exchanges *x and *y if c == 1.
func CondSwapU64(c uint8, x, y *uint64) {
	m := Mask64(c)
	t := m & (*x ^ *y)
	*x ^= t
	*y ^= t
}

// CondSetU8 sets *dst = src if c == 1.
func CondSetU8(c uint8, dst *uint8, src uint8) {
	m := MaskByte(c)
	*dst ^= m & (*dst ^ src)
}

// CondSwapU8 exchanges *x and *y if c == 1.
func CondSwapU8(c uint8, x, y *uint8) {
	m := MaskByte(c)
	t := m & (*x ^ *y)
	*x ^= t
	*y ^= t
}

// CondSetU32 sets *dst = src if c == 1.
func CondSetU32(c uint8, dst *uint32, src uint32) {
	m := uint32(Mask64(c))
	*dst ^= m & (*dst ^ src)
}

// CondSwapU32 exchanges *x and *y if c == 1.
func CondSwapU32(c uint8, x, y *uint32) {
	m := uint32(Mask64(c))
	t := m & (*x ^ *y)
	*x ^= t
	*y ^= t
}

// CondCopyBytes copies src into dst if c == 1. len(dst) must equal len(src).
// The access pattern (a full pass over both slices) is independent of c.
func CondCopyBytes(c uint8, dst, src []byte) {
	if len(dst) != len(src) {
		panic("obliv: CondCopyBytes length mismatch")
	}
	// Word-at-a-time main loop (SIMD on amd64), byte tail.
	n := len(dst) &^ 7
	condCopyWords(Mask64(c), dst, src, n)
	mb := MaskByte(c)
	for i := n; i < len(dst); i++ {
		dst[i] ^= mb & (dst[i] ^ src[i])
	}
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
