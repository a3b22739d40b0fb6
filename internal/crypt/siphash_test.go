package crypt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"snoopy/internal/obliv"
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

// TestSipBucketsNMatchesSipBuckets: every body this host has gives
// SipBuckets' buckets bit for bit, for runs of 0…130 identifiers (every
// split into eight-lane steps and a scalar tail), random keys and
// identifiers, and ranges at both ends of 32 bits — and past them, where the
// vector bodies must fall back to the scalar loop.
func TestSipBucketsNMatchesSipBuckets(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ranges := []int{1, 2, 3, 1<<31 - 1, 1<<32 - 1, 1 << 32, math.MaxInt}
	for _, body := range obliv.Kernels() {
		for n := 0; n <= 130; n++ {
			k := SipKey{r.Uint64(), r.Uint64()}
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = r.Uint64() >> uint(r.Intn(64))
			}
			for _, n1 := range ranges {
				n2 := ranges[r.Intn(len(ranges))]
				b1, b2 := make([]uint32, n), make([]uint32, n)
				sipBucketsN(body, k, ids, n1, n2, b1, b2)
				for i, id := range ids {
					w1, w2 := SipBuckets(k, id, n1, n2)
					if b1[i] != w1 || b2[i] != w2 {
						t.Fatalf("%s: n=%d ranges (%d, %d): id %d has buckets (%d, %d), SipBuckets gives (%d, %d)",
							body, n, n1, n2, i, b1[i], b2[i], w1, w2)
					}
				}
			}
		}
	}
}

func BenchmarkSipBucketsN(b *testing.B) {
	k, ids := MustNewSipKey(), make([]uint64, 64)
	b1, b2 := make([]uint32, 64), make([]uint32, 64)
	for i := range ids {
		ids[i] = uint64(i) * 131
	}
	for _, body := range obliv.Kernels() {
		b.Run(body, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sipBucketsN(body, k, ids, 845, 1, b1, b2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/id")
		})
	}
}
