package enclave

import (
	"testing"

	"snoopy/internal/crypt"
)

func TestAttestation(t *testing.T) {
	p := NewPlatform()
	m := Measure("snoopy-suboram-v1")
	kh := crypt.DigestOf([]byte("channel public key"))
	r := p.Attest(m, kh)
	if err := p.Verify(r, m); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(r, Measure("evil-program")); err == nil {
		t.Fatal("wrong measurement accepted")
	}
	r.MAC[0] ^= 1
	if err := p.Verify(r, m); err == nil {
		t.Fatal("forged report accepted")
	}
	other := NewPlatform()
	if err := other.Verify(p.Attest(m, kh), m); err == nil {
		t.Fatal("cross-platform report accepted")
	}
}
