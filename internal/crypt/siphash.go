package crypt

import (
	"crypto/rand"
	"encoding/binary"

	"snoopy/internal/obliv"
)

// SipKey is a 128-bit key for SipHash-2-4.
type SipKey [2]uint64

// NewSipKey samples a SipHash key from the CSPRNG. Batches are keyed by the
// load balancer's derived keys, not by this; it keys tables built outside
// an epoch (calibration probes, the single-tier comparison).
func NewSipKey() (SipKey, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return SipKey{}, err
	}
	return SipKey{binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])}, nil
}

// MustNewSipKey panics on entropy failure.
func MustNewSipKey() SipKey {
	k, err := NewSipKey()
	if err != nil {
		panic(err)
	}
	return k
}

// SipHash computes SipHash-2-4 of an 8-byte message (the object identifier).
// It is the fast keyed PRF used to assign requests to hash-table buckets,
// under a new key for every batch (paper §5: "for every batch we sample a
// new key ... for the keyed hash function assigning objects to buckets"),
// which the load balancer derives (loadbalancer.TableKey).
func SipHash(k SipKey, id uint64) uint64 {
	v0 := k[0] ^ 0x736f6d6570736575
	v1 := k[1] ^ 0x646f72616e646f6d
	v2 := k[0] ^ 0x6c7967656e657261
	v3 := k[1] ^ 0x7465646279746573

	round := func() {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}

	// One 8-byte block.
	v3 ^= id
	round()
	round()
	v0 ^= id

	// Length block: message length 8, i.e. 8<<56.
	b := uint64(8) << 56
	v3 ^= b
	round()
	round()
	v0 ^= b

	// Finalization.
	v2 ^= 0xff
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// SipBucket maps id to [0, n) using SipHash with multiply-shift reduction
// of the output's high word.
func SipBucket(k SipKey, id uint64, n int) uint32 {
	b, _ := SipBuckets(k, id, n, 1)
	return b
}

// SipBuckets maps id to a bucket in [0, n1) and a bucket in [0, n2) from
// one SipHash: multiply-shift reduction of the output's high word for the
// first (SipBucket's value) and of its low word for the second. The two
// words are disjoint bits of one PRF output, so for a fresh key the pair is
// distributed as two independent hashes would be.
func SipBuckets(k SipKey, id uint64, n1, n2 int) (b1, b2 uint32) {
	if n1 <= 0 || n2 <= 0 {
		panic("crypt: SipBuckets ranges must be positive")
	}
	v := SipHash(k, id)
	return uint32((v >> 32) * uint64(n1) >> 32), uint32((v & (1<<32 - 1)) * uint64(n2) >> 32)
}

// SipBucketsN is SipBuckets over a run of identifiers: b1[i], b2[i] =
// SipBuckets(k, ids[i], n1, n2) for every i, bit for bit. On the vector
// bodies of the subORAM scan kernel (obliv.Kernel, the one CPUID probe) it
// hashes eight identifiers a step, SipHash-2-4 in eight 64-bit lanes, and
// reduces with 32×32-bit multiplies; the portable body, a range of 2³² or
// more (where a 32-bit multiply would differ from SipBuckets' 64-bit one)
// and the last len(ids) mod 8 identifiers take the scalar loop. Which body
// runs is a function of the platform, len(ids), n1 and n2 only. b1 and b2
// must hold len(ids) entries.
func SipBucketsN(k SipKey, ids []uint64, n1, n2 int, b1, b2 []uint32) {
	sipBucketsN(sipBody, k, ids, n1, n2, b1, b2)
}

// sipBody is the SipBucketsN body this process runs.
var sipBody = obliv.Kernel()

// sipBucketsN is SipBucketsN on the named body.
func sipBucketsN(body string, k SipKey, ids []uint64, n1, n2 int, b1, b2 []uint32) {
	if n1 <= 0 || n2 <= 0 {
		panic("crypt: SipBuckets ranges must be positive")
	}
	b1, b2 = b1[:len(ids)], b2[:len(ids)]
	i := 0
	if body != "go" && uint64(n1) < 1<<32 && uint64(n2) < 1<<32 {
		i = len(ids) &^ 7
		if i > 0 {
			v := [4]uint64{k[0] ^ 0x736f6d6570736575, k[1] ^ 0x646f72616e646f6d, k[0] ^ 0x6c7967656e657261, k[1] ^ 0x7465646279746573}
			sipBuckets8(&v, &ids[0], i, uint64(n1), uint64(n2), &b1[0], &b2[0], body == "avx512vl")
		}
	}
	for ; i < len(ids); i++ {
		b1[i], b2[i] = SipBuckets(k, ids[i], n1, n2)
	}
}
