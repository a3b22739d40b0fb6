package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
)

// The registry is the store's sealed root of trust on disk: one record
// naming the geometry, the committed store epoch, the owner's mark, the
// data-file generation, and — per logical segment — the epoch its current
// image must authenticate at (which also names its parity slot) and the
// nonce that image was sealed under, so no other sealing of the segment
// passes. It is rewritten atomically (hostfs.WriteFileAtomic) at every
// commit, so the host either observes the previous registry or the new one,
// never a torn mix.
//
// Freshness of the registry itself is NOT self-certifying — a malicious
// host can always serve yesterday's registry together with yesterday's
// (internally consistent) slots. The enclosing persistence layer anchors it
// by comparing the epoch it marked the registry with (SetMark) against the
// trusted monotonic counter.

// registryFile is the registry record's file name within the store dir.
const registryFile = "registry"

// regContext is the registry record's AAD context.
const regContext = "snoopy-segstore/registry/v2"

// regMagic / regVersion identify the plaintext layout.
const (
	regMagic   = uint32(0x5347_5247) // "SGRG"
	regVersion = uint32(3)
)

// regHeaderLen is the fixed plaintext header:
// magic u32 | version u32 | blockSize u32 | segmentBlocks u32 |
// numBlocks u64 | storeEpoch u64 | mark u64 | gen u64 | numSegments u32.
const regHeaderLen = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4

// regEntryLen is one per-segment entry: epoch u64 | nonce.
const regEntryLen = 8 + crypt.NonceSize

// maxRegistrySegments bounds the segment count a decoder will accept before
// allocating, so a corrupt length field cannot drive an OOM. 2^26 segments
// at the minimum segment size is already far beyond any deployable
// partition.
const maxRegistrySegments = 1 << 26

// segEntry is one logical segment's registry entry: its current seal.
type segEntry struct {
	epoch uint64                // epoch the seal authenticates at; its parity names the slot
	nonce [crypt.NonceSize]byte // the seal's nonce: every sealing has its own
}

// registry is the in-memory registry state.
type registry struct {
	blockSize     uint32
	segmentBlocks uint32
	numBlocks     uint64
	storeEpoch    uint64
	mark          uint64 // the owner's, committed with the registry (SetMark)
	gen           uint64
	entries       []segEntry
}

// marshalRegistry appends the registry plaintext to dst.
func marshalRegistry(dst []byte, r registry) []byte {
	var hdr [regHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], regMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], regVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], r.blockSize)
	binary.LittleEndian.PutUint32(hdr[12:16], r.segmentBlocks)
	binary.LittleEndian.PutUint64(hdr[16:24], r.numBlocks)
	binary.LittleEndian.PutUint64(hdr[24:32], r.storeEpoch)
	binary.LittleEndian.PutUint64(hdr[32:40], r.mark)
	binary.LittleEndian.PutUint64(hdr[40:48], r.gen)
	binary.LittleEndian.PutUint32(hdr[48:52], uint32(len(r.entries)))
	dst = append(dst, hdr[:]...)
	var ent [regEntryLen]byte
	for _, e := range r.entries {
		binary.LittleEndian.PutUint64(ent[0:8], e.epoch)
		copy(ent[8:], e.nonce[:])
		dst = append(dst, ent[:]...)
	}
	return dst
}

// unmarshalRegistry decodes a registry plaintext with hostile-input bounds
// checking: every length and geometry field is validated before use, and
// every failure is a typed error in the ErrIntegrity class — never a panic,
// never a partially-populated registry.
func unmarshalRegistry(b []byte) (registry, error) {
	var r registry
	if len(b) < regHeaderLen {
		return r, errCorrupt("registry truncated: %d bytes, header needs %d", len(b), regHeaderLen)
	}
	if got := binary.LittleEndian.Uint32(b[0:4]); got != regMagic {
		return r, errCorrupt("registry has bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(b[4:8]); got != regVersion {
		return r, errCorrupt("registry version %d unsupported", got)
	}
	r.blockSize = binary.LittleEndian.Uint32(b[8:12])
	r.segmentBlocks = binary.LittleEndian.Uint32(b[12:16])
	r.numBlocks = binary.LittleEndian.Uint64(b[16:24])
	r.storeEpoch = binary.LittleEndian.Uint64(b[24:32])
	r.mark = binary.LittleEndian.Uint64(b[32:40])
	r.gen = binary.LittleEndian.Uint64(b[40:48])
	n := binary.LittleEndian.Uint32(b[48:52])
	if r.blockSize == 0 || r.segmentBlocks == 0 {
		return registry{}, errCorrupt("registry names zero geometry (block size %d, segment blocks %d)", r.blockSize, r.segmentBlocks)
	}
	if n > maxRegistrySegments {
		return registry{}, errCorrupt("registry names %d segments, beyond the %d bound", n, maxRegistrySegments)
	}
	segs := (r.numBlocks + uint64(r.segmentBlocks) - 1) / uint64(r.segmentBlocks)
	if uint64(n) != segs {
		return registry{}, errCorrupt("registry entry count %d disagrees with %d blocks at %d blocks/segment (want %d)", n, r.numBlocks, r.segmentBlocks, segs)
	}
	if len(b) != regHeaderLen+int(n)*regEntryLen {
		return registry{}, errCorrupt("registry length %d, want %d for %d segments", len(b), regHeaderLen+int(n)*regEntryLen, n)
	}
	r.entries = make([]segEntry, n)
	for i := range r.entries {
		off := regHeaderLen + i*regEntryLen
		r.entries[i].epoch = binary.LittleEndian.Uint64(b[off : off+8])
		copy(r.entries[i].nonce[:], b[off+8:off+regEntryLen])
		if r.entries[i].epoch > r.storeEpoch {
			return registry{}, errCorrupt("registry entry %d at epoch %d, beyond store epoch %d", i, r.entries[i].epoch, r.storeEpoch)
		}
	}
	return r, nil
}

// maxRegistryBytes bounds the sealed registry file a reader will load.
const maxRegistryBytes = regHeaderLen + maxRegistrySegments*regEntryLen + crypt.Overhead

// readRegistry loads and opens the sealed registry record. os.ErrNotExist
// passes through untouched (unformatted store); every other failure is in
// the ErrIntegrity class.
func (s *Store) readRegistry() (registry, error) {
	raw, err := hostfs.ReadFile(s.fs, filepath.Join(s.dir, registryFile), maxRegistryBytes)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return registry{}, err
		}
		return registry{}, fmt.Errorf("segstore: reading registry: %w", err)
	}
	plain, err := s.sealer.Open(raw, []byte(regContext))
	if err != nil {
		return registry{}, errCorrupt("registry authentication failed")
	}
	return unmarshalRegistry(plain)
}

// commitRegistryLocked seals r and atomically replaces the registry record
// with it — the commit point that makes an epoch's slots authoritative.
// Caller holds s.mu; the scratch buffers are reused across commits.
func (s *Store) commitRegistryLocked(r registry) error {
	s.regPlain = marshalRegistry(s.regPlain[:0], r)
	s.regSealed = s.sealer.SealAppend(s.regSealed[:0], s.regPlain, []byte(regContext))
	return hostfs.WriteFileAtomic(s.fs, filepath.Join(s.dir, registryFile), s.regSealed)
}
