package crypt

import (
	"bytes"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key := MustNewKey()
	s, err := NewSealer(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the frequency with which a doctor accesses a database")
	aad := []byte("epoch=7")
	ct := s.Seal(pt, aad)
	if bytes.Contains(ct, pt) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := s.Open(ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s, _ := NewSealer(MustNewKey(), 1)
	ct := s.Seal([]byte("payload"), nil)
	for _, i := range []int{0, NonceSize, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 1
		if _, err := s.Open(bad, nil); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	if _, err := s.Open(ct, []byte("wrong aad")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
	if _, err := s.Open(ct[:4], nil); err == nil {
		t.Fatal("truncated message accepted")
	}
}

func TestNoncesNeverRepeat(t *testing.T) {
	s, _ := NewSealer(MustNewKey(), 3)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ct := s.Seal([]byte("x"), nil)
		n := string(ct[:NonceSize])
		if seen[n] {
			t.Fatal("nonce reuse")
		}
		seen[n] = true
	}
}

func TestChannelsSeparateNonces(t *testing.T) {
	key := MustNewKey()
	a, _ := NewSealer(key, 1)
	b, _ := NewSealer(key, 2)
	ca := a.Seal([]byte("x"), nil)
	cb := b.Seal([]byte("x"), nil)
	if bytes.Equal(ca[:NonceSize], cb[:NonceSize]) {
		t.Fatal("different channels produced identical nonces")
	}
}

func TestHasherDeterministicAndKeyed(t *testing.T) {
	k1, k2 := MustNewKey(), MustNewKey()
	h1, h1b, h2 := NewHasher(k1), NewHasher(k1), NewHasher(k2)
	if h1.Sum64(42) != h1b.Sum64(42) {
		t.Fatal("same key must give same hash")
	}
	if h1.Sum64(42) == h2.Sum64(42) {
		t.Fatal("different keys should give different hashes (overwhelmingly)")
	}
}

func TestBucketRangeAndBalance(t *testing.T) {
	h := NewHasher(MustNewKey())
	const n = 16
	counts := make([]int, n)
	const trials = 16000
	for id := uint64(0); id < trials; id++ {
		b := h.Bucket(id, n)
		if int(b) >= n {
			t.Fatalf("bucket %d out of range", b)
		}
		counts[b]++
	}
	mean := trials / n
	for i, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("bucket %d badly unbalanced: %d (mean %d)", i, c, mean)
		}
	}
}

func TestDigest(t *testing.T) {
	b := []byte("block contents")
	d := DigestOf(b)
	if DigestOf(b) != d {
		t.Fatal("digest is not a function of the contents")
	}
	b[0] ^= 1
	if DigestOf(b) == d {
		t.Fatal("tampered block has the same digest")
	}
}
