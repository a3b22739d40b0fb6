// Package enclave implements the abstract enclave model Snoopy is proven
// secure against (paper §2, §B.1): the attacker controls everything outside
// the enclave, can read/modify enclave-external memory, and observes access
// patterns — but cannot see data inside the processor.
//
// Since Go has no production SGX runtime, this package *is* the substrate
// substitution recorded in DESIGN.md: it provides simulated remote
// attestation — a measurement-binding report a client verifies before keying
// a channel (paper §3.1) — and ErrIntegrity, the class of every failure the
// host can cause in sealed enclave-external state. That state itself (paper
// §2 "Data integrity", §7 paging) is internal/segstore over internal/hostfs;
// the access-pattern side of the model is exercised by internal/trace.
package enclave

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"snoopy/internal/crypt"
)

// ErrIntegrity is returned when external memory fails authentication — the
// untrusted host tampered with or rolled back a block.
var ErrIntegrity = errors.New("enclave: external memory integrity violation")

// ---- Simulated remote attestation ----

// Measurement identifies the program loaded into an enclave (MRENCLAVE).
type Measurement [sha256.Size]byte

// Measure hashes a program description into a Measurement.
func Measure(program string) Measurement { return sha256.Sum256([]byte(program)) }

// Platform simulates the hardware vendor's attestation root: enclaves on
// the same platform can produce reports that verifiers holding the platform
// identity can check. (A real deployment would verify vendor signatures;
// the MAC stands in for that chain.)
type Platform struct {
	root crypt.Key
}

// NewPlatform creates an attestation root.
func NewPlatform() *Platform { return &Platform{root: crypt.MustNewKey()} }

// NewPlatformFromKey builds a platform from a shared root key so separate
// processes (cmd/snoopy-server, cmd/snoopy-client) can agree on one
// simulated attestation authority.
func NewPlatformFromKey(root crypt.Key) *Platform { return &Platform{root: root} }

// Report binds a measurement and channel-key fingerprint to the platform.
type Report struct {
	Measurement Measurement
	KeyHash     crypt.Digest
	MAC         [sha256.Size]byte
}

// Attest produces a report for an enclave running `program` that is
// offering the channel key fingerprint keyHash.
func (p *Platform) Attest(m Measurement, keyHash crypt.Digest) Report {
	mac := hmac.New(sha256.New, p.root[:])
	mac.Write(m[:])
	mac.Write(keyHash[:])
	var r Report
	r.Measurement = m
	r.KeyHash = keyHash
	copy(r.MAC[:], mac.Sum(nil))
	return r
}

// Verify checks a report against an expected measurement.
func (p *Platform) Verify(r Report, want Measurement) error {
	if r.Measurement != want {
		return fmt.Errorf("enclave: measurement mismatch")
	}
	mac := hmac.New(sha256.New, p.root[:])
	mac.Write(r.Measurement[:])
	mac.Write(r.KeyHash[:])
	if !hmac.Equal(mac.Sum(nil), r.MAC[:]) {
		return fmt.Errorf("enclave: attestation MAC invalid")
	}
	return nil
}
