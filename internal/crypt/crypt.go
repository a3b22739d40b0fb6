// Package crypt provides the cryptographic tools Snoopy relies on (paper
// §3.1, §7): authenticated encryption with a strict nonce discipline for all
// inter-node and sealed-storage traffic, and a keyed cryptographic hash used
// to assign objects to subORAMs and hash-table buckets (§4.1, §5).
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// KeySize is the byte length of all symmetric keys (AES-256 / HMAC keys).
const KeySize = 32

// NonceSize is the AES-GCM nonce length in bytes.
const NonceSize = 12

// Overhead is the ciphertext expansion of Seal: nonce plus GCM tag.
const Overhead = NonceSize + 16

// ErrAuth is returned when decryption or digest verification fails,
// indicating tampering by the untrusted host.
var ErrAuth = errors.New("crypt: authentication failure")

// Key is a symmetric secret key.
type Key [KeySize]byte

// NewKey samples a fresh random key.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("crypt: sampling key: %w", err)
	}
	return k, nil
}

// MustNewKey is NewKey for contexts (tests, examples) where entropy failure
// is fatal anyway.
func MustNewKey() Key {
	k, err := NewKey()
	if err != nil {
		panic(err)
	}
	return k
}

// Sealer performs authenticated encryption with a monotone nonce counter,
// preventing both forgery and replay of messages within a channel (paper
// §3.1: "all communication is encrypted using an authenticated encryption
// scheme with a nonce to prevent replay attacks"). A Sealer is safe for
// concurrent use.
type Sealer struct {
	aead    cipher.AEAD
	counter atomic.Uint64
	channel uint32
}

// NewSealer builds a Sealer for the given key. The channel id is folded into
// every nonce so that distinct channels sharing a key never collide.
func NewSealer(key Key, channel uint32) (*Sealer, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return &Sealer{aead: aead, channel: channel}, nil
}

// Seal encrypts and authenticates plaintext with the given associated data,
// returning nonce||ciphertext||tag. Each call consumes a fresh nonce.
func (s *Sealer) Seal(plaintext, aad []byte) []byte {
	return s.SealAppend(nil, plaintext, aad)
}

// SealAppend is Seal appending to dst (which may share no storage with
// plaintext), so a steady-state sender can reuse one frame buffer per
// channel instead of allocating per message.
func (s *Sealer) SealAppend(dst, plaintext, aad []byte) []byte {
	// The nonce is built in place at the end of dst and passed to the AEAD
	// as a slice of dst itself: a local nonce array would escape through
	// the cipher.AEAD interface call and cost one heap allocation per
	// frame. Seal appends the ciphertext after the nonce and never writes
	// the prefix, so the aliasing is safe.
	off := len(dst)
	var nonce [NonceSize]byte
	binary.LittleEndian.PutUint32(nonce[0:4], s.channel)
	binary.LittleEndian.PutUint64(nonce[4:12], s.counter.Add(1))
	dst = append(dst, nonce[:]...)
	return s.aead.Seal(dst, dst[off:off+NonceSize], plaintext, aad)
}

// Open authenticates and decrypts a message produced by Seal with the same
// key and associated data.
func (s *Sealer) Open(msg, aad []byte) ([]byte, error) {
	return s.OpenAppend(nil, msg, aad)
}

// OpenAppend is Open appending the plaintext to dst (which may share no
// storage with msg), the receive-side counterpart of SealAppend.
func (s *Sealer) OpenAppend(dst, msg, aad []byte) ([]byte, error) {
	if len(msg) < NonceSize {
		return nil, ErrAuth
	}
	pt, err := s.aead.Open(dst, msg[:NonceSize], msg[NonceSize:], aad)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}

// RandomSealer performs authenticated encryption with fresh random nonces.
// It serves sealed *storage* (state that outlives the process), where the
// Sealer's monotone counter discipline would repeat nonces after a restart:
// a recovered enclave re-sealing block 0 under counter 1 would collide with
// the pre-crash seal of block 0. Random 96-bit nonces make collisions
// negligible regardless of restarts. A RandomSealer is safe for concurrent
// use.
type RandomSealer struct {
	aead cipher.AEAD
}

// NewRandomSealer builds a RandomSealer for the given key.
func NewRandomSealer(key Key) (*RandomSealer, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return &RandomSealer{aead: aead}, nil
}

// Seal encrypts and authenticates plaintext with the given associated data,
// returning nonce||ciphertext||tag (Overhead bytes of expansion).
func (s *RandomSealer) Seal(plaintext, aad []byte) []byte {
	return s.SealAppend(nil, plaintext, aad)
}

// SealAppend is Seal appending to dst (which may share no storage with
// plaintext), so a steady-state sealed-storage writer can reuse one
// ciphertext buffer per stream instead of allocating per record.
func (s *RandomSealer) SealAppend(dst, plaintext, aad []byte) []byte {
	// Stage the nonce inside dst rather than a local array: locals passed
	// to rand.Read and the AEAD interface escape, costing one heap
	// allocation per seal — dst is already heap-backed.
	n := len(dst)
	var zero [NonceSize]byte
	dst = append(dst, zero[:]...)
	nonce := dst[n : n+NonceSize]
	if _, err := rand.Read(nonce); err != nil {
		panic(fmt.Sprintf("crypt: sampling nonce: %v", err))
	}
	return s.aead.Seal(dst, nonce, plaintext, aad)
}

// Open authenticates and decrypts a message produced by Seal with the same
// key and associated data.
func (s *RandomSealer) Open(msg, aad []byte) ([]byte, error) {
	return s.OpenAppend(nil, msg, aad)
}

// OpenAppend is Open appending the plaintext to dst (which may share no
// storage with msg), the read-side counterpart of SealAppend.
func (s *RandomSealer) OpenAppend(dst, msg, aad []byte) ([]byte, error) {
	if len(msg) < NonceSize {
		return nil, ErrAuth
	}
	pt, err := s.aead.Open(dst, msg[:NonceSize], msg[NonceSize:], aad)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}

// Hasher is the keyed cryptographic hash H_k of the paper: it maps object
// identifiers to [range) such that, without the key, the attacker cannot
// predict or bias assignments (§4.1: "requests are randomly distributed by
// using a keyed hash function where the attacker does not know the key").
//
// The PRF is SipHash-2-4 under a key derived from the 256-bit secret (the
// same PRF the hash-table bucket assignment uses). It is stateless and
// allocation-free: Sum64 sits on the per-request path of every epoch
// (object→subORAM assignment), where the previous HMAC-SHA256 construction
// spent more time allocating MAC state than hashing.
type Hasher struct {
	k SipKey
}

// NewHasher builds a keyed hasher.
func NewHasher(key Key) *Hasher {
	// Domain-separate from direct uses of the key: hash the key through
	// SHA-256 with a context label before truncating to the SipHash key.
	d := sha256.Sum256(append([]byte("snoopy-hasher/v1|"), key[:]...))
	return &Hasher{k: SipKey{
		binary.LittleEndian.Uint64(d[0:8]),
		binary.LittleEndian.Uint64(d[8:16]),
	}}
}

// Sum64 returns the full 64-bit keyed hash of id.
func (h *Hasher) Sum64(id uint64) uint64 {
	return SipHash(h.k, id)
}

// Bucket maps id to a bucket index in [0, n). n must be positive.
func (h *Hasher) Bucket(id uint64, n int) uint32 {
	if n <= 0 {
		panic("crypt: Bucket range must be positive")
	}
	// Multiply-shift reduction avoids modulo bias beyond 2^-32 for the
	// bucket counts used here (n << 2^32).
	v := h.Sum64(id)
	return uint32((v >> 32) * uint64(n) >> 32)
}

// Digest is a SHA-256 content digest: an attested channel key's fingerprint
// and the handshake transcript it binds.
type Digest [sha256.Size]byte

// DigestOf computes the digest of b.
func DigestOf(b []byte) Digest { return sha256.Sum256(b) }
