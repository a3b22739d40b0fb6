package obliv

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refLtU64 is the five-operation borrow formula LtU64 used before it took
// the borrow of bits.Sub64: the top bit of (¬x ∧ y) ∨ ((¬x ∨ y) ∧ (x − y)).
func refLtU64(x, y uint64) uint8 {
	return uint8(((^x & y) | ((^x | y) & (x - y))) >> 63)
}

func TestLtU64(t *testing.T) {
	cases := []struct {
		x, y uint64
		want uint8
	}{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 0},
		{^uint64(0), 0, 0}, {0, ^uint64(0), 1},
		{^uint64(0), ^uint64(0), 0},
		{1 << 63, (1 << 63) - 1, 0}, {(1 << 63) - 1, 1 << 63, 1},
		{42, 42, 0}, {41, 42, 1},
	}
	for _, c := range cases {
		if got := LtU64(c.x, c.y); got != c.want {
			t.Errorf("LtU64(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
	// Every pair of the edges 0, 1, 2, 2⁶³−1, 2⁶³, 2⁶⁴−1 against the formula.
	edges := []uint64{0, 1, 2, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, x := range edges {
		for _, y := range edges {
			if got, want := LtU64(x, y), refLtU64(x, y); got != want {
				t.Errorf("LtU64(%#x,%#x) = %d, formula says %d", x, y, got, want)
			}
			if GtU64(x, y) != refLtU64(y, x) || GeU64(x, y) != 1-refLtU64(x, y) {
				t.Errorf("GtU64/GeU64(%#x,%#x) disagree with the formula", x, y)
			}
		}
	}
}

func TestPredicatesQuick(t *testing.T) {
	f := func(x, y uint64) bool {
		lt := LtU64(x, y) == 1
		gt := GtU64(x, y) == 1
		ge := GeU64(x, y) == 1
		eq := EqU64(x, y) == 1
		ne := NeqU64(x, y) == 1
		return lt == (x < y) && gt == (x > y) &&
			ge == (x >= y) && eq == (x == y) && ne == (x != y) &&
			LtU64(x, y) == refLtU64(x, y) && GtU64(x, y) == refLtU64(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAndCondSet(t *testing.T) {
	if SelectU64(0, 7, 9) != 7 {
		t.Error("SelectU64(0) should return first arg")
	}
	if SelectU64(1, 7, 9) != 9 {
		t.Error("SelectU64(1) should return second arg")
	}
	x := uint64(5)
	CondSetU64(0, &x, 10)
	if x != 5 {
		t.Errorf("CondSetU64(0) changed dst: %d", x)
	}
	CondSetU64(1, &x, 10)
	if x != 10 {
		t.Errorf("CondSetU64(1) did not set dst: %d", x)
	}
}

func TestCondSwapU64(t *testing.T) {
	x, y := uint64(1), uint64(2)
	CondSwapU64(0, &x, &y)
	if x != 1 || y != 2 {
		t.Errorf("CondSwapU64(0) swapped: %d %d", x, y)
	}
	CondSwapU64(1, &x, &y)
	if x != 2 || y != 1 {
		t.Errorf("CondSwapU64(1) did not swap: %d %d", x, y)
	}
}

func TestCondBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 160, 1000} {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		a0 := append([]byte(nil), a...)
		b0 := append([]byte(nil), b...)

		CondCopyBytes(0, a, b)
		if !bytes.Equal(a, a0) {
			t.Fatalf("n=%d: CondCopyBytes(0) modified dst", n)
		}
		CondCopyBytes(1, a, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("n=%d: CondCopyBytes(1) did not copy", n)
		}

		a = append([]byte(nil), a0...)
		SwapRunBlocks([]uint8{0}, a, b, n)
		if !bytes.Equal(a, a0) || !bytes.Equal(b, b0) {
			t.Fatalf("n=%d: SwapRunBlocks([0]) modified operands", n)
		}
		SwapRunBlocks([]uint8{1}, a, b, n)
		if !bytes.Equal(a, b0) || !bytes.Equal(b, a0) {
			t.Fatalf("n=%d: SwapRunBlocks([1]) did not swap", n)
		}
	}
}

func TestCondBytesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	CondCopyBytes(1, make([]byte, 3), make([]byte, 4))
}
