package crypt

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestSipHashVector checks against the reference test vectors from the
// SipHash paper (Aumasson & Bernstein), key 000102...0f, message 00..07.
func TestSipHashVector(t *testing.T) {
	var kb [16]byte
	for i := range kb {
		kb[i] = byte(i)
	}
	k := SipKey{
		binary.LittleEndian.Uint64(kb[0:8]),
		binary.LittleEndian.Uint64(kb[8:16]),
	}
	var mb [8]byte
	for i := range mb {
		mb[i] = byte(i)
	}
	msg := binary.LittleEndian.Uint64(mb[:])
	// Expected SipHash-2-4 output for the 8-byte message 0001..07
	// (reference-vector bytes 62 24 93 9a 79 f5 f5 93, little-endian).
	want := uint64(0x93f5f5799a932462)
	if got := SipHash(k, msg); got != want {
		t.Fatalf("SipHash = %016x, want %016x", got, want)
	}
}

func TestSipHashKeyed(t *testing.T) {
	k1, k2 := MustNewSipKey(), MustNewSipKey()
	if SipHash(k1, 7) == SipHash(k2, 7) {
		t.Fatal("different keys should disagree")
	}
	if SipHash(k1, 7) != SipHash(k1, 7) {
		t.Fatal("same key must agree")
	}
}

func TestSipBucketBalance(t *testing.T) {
	k := MustNewSipKey()
	const n = 32
	counts := make([]int, n)
	const trials = 32000
	for id := uint64(0); id < trials; id++ {
		counts[SipBucket(k, id, n)]++
	}
	mean := trials / n
	for i, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("bucket %d unbalanced: %d (mean %d)", i, c, mean)
		}
	}
}

// TestSipBucketsJointlyUniform: under a fixed key, the (first, second) bucket
// pairs SipBuckets gives 10⁶ consecutive identifiers fill the n1 × n2 grid
// uniformly — Pearson's χ² within five standard deviations of its mean. A
// uniform joint distribution is uniform marginals and independence at once:
// what the two-tier table needs from taking both buckets out of one hash
// (DESIGN.md §18). The first bucket is SipBucket's. The negative control
// takes both buckets from the same word of the hash and must fail the same
// test, so the statistic can see dependence.
func TestSipBucketsJointlyUniform(t *testing.T) {
	k := SipKey{0x0706050403020100, 0x0f0e0d0c0b0a0908}
	const ids = 1_000_000
	// excess is χ² minus its mean, in standard deviations.
	excess := func(n1, n2 int, pair func(id uint64) (uint32, uint32)) float64 {
		cells := make([]int, n1*n2)
		for id := uint64(0); id < ids; id++ {
			b1, b2 := pair(id)
			cells[int(b1)*n2+int(b2)]++ // out of range panics
		}
		expected := float64(ids) / float64(len(cells))
		chi2 := 0.0
		for _, c := range cells {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		dof := float64(len(cells) - 1)
		return (chi2 - dof) / math.Sqrt(2*dof)
	}
	for _, n := range [][2]int{{256, 25}, {16, 16}, {61, 7}, {4096, 224}} {
		if e := excess(n[0], n[1], func(id uint64) (uint32, uint32) { return SipBuckets(k, id, n[0], n[1]) }); e > 5 {
			t.Fatalf("%v buckets: χ² is %.1f standard deviations above its mean", n, e)
		}
		sameWord := func(id uint64) (uint32, uint32) { return SipBucket(k, id, n[0]), SipBucket(k, id, n[1]) }
		if e := excess(n[0], n[1], sameWord); e < 50 {
			t.Fatalf("%v buckets from one word of the hash pass the test (%.1f standard deviations): it has no power", n, e)
		}
	}
	for id := uint64(0); id < 1000; id++ {
		if b1, _ := SipBuckets(k, id, 1024, 25); b1 != SipBucket(k, id, 1024) {
			t.Fatalf("id %d: first bucket %d, SipBucket says %d", id, b1, SipBucket(k, id, 1024))
		}
	}
}
