package segstore

// Fuzz targets for the sealed-storage decoders: the registry plaintext
// codec and the full on-disk store (registry file + segment slots). The
// host controls every byte of both; however they are mangled — bit flips,
// truncation, swapped halves, appended garbage, stale copies — the store
// must either fail with an enclave.ErrIntegrity-class error or expose
// exactly the committed state. It must never panic and never serve
// something else.
//
// `go test` runs the seed corpus; `go test -fuzz=FuzzX` explores further.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
)

// FuzzRegistryDecoder feeds raw plaintext at unmarshalRegistry (the layer
// under the AEAD — what an attacker who somehow forged a seal would reach).
// Accepted inputs must be canonical: re-marshaling reproduces the input
// byte for byte, so no two byte strings decode to the same registry.
func FuzzRegistryDecoder(f *testing.F) {
	valid := marshalRegistry(nil, registry{
		blockSize:     32,
		segmentBlocks: 4,
		numBlocks:     19,
		storeEpoch:    7,
		mark:          7,
		gen:           1,
		entries: []segEntry{
			{epoch: 7, nonce: [12]byte{1}}, {epoch: 7, nonce: [12]byte{2}}, {epoch: 7, nonce: [12]byte{3}},
			{epoch: 6, nonce: [12]byte{4}}, {epoch: 7, nonce: [12]byte{5}},
		},
	})
	f.Add(valid)
	f.Add(valid[:regHeaderLen])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := unmarshalRegistry(raw)
		if err != nil {
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("error outside the integrity class: %v", err)
			}
			return
		}
		if got := marshalRegistry(nil, r); !bytes.Equal(got, raw) {
			t.Fatalf("accepted non-canonical registry: %d bytes in, %d bytes back", len(raw), len(got))
		}
	})
}

// FuzzStoreMutation builds a real two-epoch store, mutates one of its files
// the way a hostile host would, and checks that reopen + full verify either
// fails closed in the integrity class or yields exactly the committed
// contents. The rolled-back-file case (restore a stale but authentic copy)
// is covered explicitly as mutation op 4.
func FuzzStoreMutation(f *testing.F) {
	for fileIdx := byte(0); fileIdx < 2; fileIdx++ {
		for op := byte(0); op < 5; op++ {
			f.Add(fileIdx, op, uint32(0), byte(0xff))
			f.Add(fileIdx, op, uint32(1<<30), byte(1))
			f.Add(fileIdx, op, uint32(4099), byte(0))
		}
	}
	f.Fuzz(func(t *testing.T, fileIdx, op byte, pos uint32, val byte) {
		const blockSize, segBlocks, n = 32, 4, 19
		dir := t.TempDir()
		key := crypt.MustNewKey()
		s, err := Open(dir, Options{BlockSize: blockSize, SegmentBlocks: segBlocks, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Format(n); err != nil {
			t.Fatal(err)
		}
		fillPattern(t, s, n, blockSize, 0xAA)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		regPath := filepath.Join(dir, registryFile)
		dataPath := s.dataPath(1)
		// Stale-but-authentic copies of epoch 0, for the rollback op.
		staleReg, err := os.ReadFile(regPath)
		if err != nil {
			t.Fatal(err)
		}
		staleData, err := os.ReadFile(dataPath)
		if err != nil {
			t.Fatal(err)
		}
		s.Begin()
		if err := s.Scan(0, n, eachBlock(s, func(i int, blk []byte) {
			binary.LittleEndian.PutUint64(blk, binary.LittleEndian.Uint64(blk)+1000)
		})); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		path := regPath
		stale := staleReg
		if fileIdx%2 == 1 {
			path = dataPath
			stale = staleData
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch op % 5 {
		case 0: // flip bits in one byte
			b[int(pos)%len(b)] ^= val | 1
		case 1: // truncate
			b = b[:int(pos)%(len(b)+1)]
		case 2: // swap halves
			half := len(b) / 2
			if half > 0 {
				tmp := append([]byte(nil), b[:half]...)
				copy(b, b[half:2*half])
				copy(b[half:2*half], tmp)
			}
		case 3: // append garbage
			for i := 0; i < int(pos%64)+1; i++ {
				b = append(b, val)
			}
		case 4: // roll back to the authentic epoch-0 copy
			b = stale
		}
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, Options{BlockSize: blockSize, SegmentBlocks: segBlocks, Key: key})
		if err != nil {
			if !errors.Is(err, enclave.ErrIntegrity) {
				t.Fatalf("open after mutating %s (op %d): error outside the integrity class: %v",
					filepath.Base(path), op%5, err)
			}
			return
		}
		defer s2.Close()
		// Rolling the registry back alone is indistinguishable from a crash
		// before the epoch-1 commit at this layer: the registry is authentic
		// and self-consistent at epoch 0. Catching it is the trusted
		// counter's job — persist.Durable fails an image marked behind it.
		// Everything segstore accepts must at least be an authentic committed
		// state.
		wantEpoch := uint64(1)
		wantSalt := uint64(1000)
		if fileIdx%2 == 0 && op%5 == 4 {
			wantEpoch, wantSalt = 0, 0
		}
		if got := s2.Epoch(); got != wantEpoch {
			t.Fatalf("mutating %s (op %d): silently loaded epoch %d, want %d",
				filepath.Base(path), op%5, got, wantEpoch)
		}
		err = s2.Verify(0, n, eachBlock(s2, func(i int, blk []byte) {
			if got := binary.LittleEndian.Uint64(blk); got != uint64(i)+wantSalt {
				t.Fatalf("mutating %s (op %d): block %d silently corrupted to %d",
					filepath.Base(path), op%5, i, got)
			}
		}))
		if err != nil && !errors.Is(err, enclave.ErrIntegrity) {
			t.Fatalf("read after mutating %s (op %d): error outside the integrity class: %v",
				filepath.Base(path), op%5, err)
		}
	})
}
