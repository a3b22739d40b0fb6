package persist

// Fuzz targets. FuzzSealedState covers the one sealed-log reader and the
// files around it: however
// the host mangles a state directory — bit flips, truncation, reordered,
// replayed or excised records, appended garbage, in the log or in the sealed
// files beside it — reopening must either fail in the enclave.ErrIntegrity
// class or load exactly the acknowledged state. It must never panic and
// never silently load something else. The three owners of sealed state (a
// Durable in the memory and in the disk placement, the root journal) share
// the target: each runs its crash-enumeration scenario to the end, the
// fuzzer picks the file and the damage, and the scenario's own check is the
// judge.
//
// The trusted counter is not a target: rewinding it is outside the model
// (TestCounterSlots pins what damage to it does).
//
// FuzzJournalEpochDecode covers the journal's epoch codec below the seal:
// decoding arbitrary plaintext never panics, and a payload that decodes
// re-encodes byte for byte, so decode accepts exactly what encode writes.
//
// `go test` runs the seed corpora; `go test -fuzz=FuzzSealedState` (or
// `-fuzz=FuzzJournalEpochDecode`) explores.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"snoopy/internal/enclave"
)

func FuzzSealedState(f *testing.F) {
	for owner := byte(0); owner < 3; owner++ {
		for file := byte(0); file < 3; file++ {
			for op := byte(0); op < 6; op++ {
				f.Add(owner, file, op, uint32(0), byte(0xff))
				f.Add(owner, file, op, uint32(1<<30), byte(1))
				f.Add(owner, file, op, uint32(77), byte(0))
			}
		}
	}
	owners := []struct {
		c     crashCase
		files []string
	}{
		// The scenario's second Init leaves the image at generation 2.
		{durableCase(false), []string{walFile, idsFile(2), "segments/registry"}},
		{durableCase(true), []string{idsFile(2), "segments/registry"}},
		{journalCase(), []string{journalFile, sealKeyFile}},
	}
	f.Fuzz(func(t *testing.T, owner, file, op byte, pos uint32, val byte) {
		o := owners[int(owner)%len(owners)]
		dir := t.TempDir()
		fs := newCrashFS()
		total := o.c.run(t, fs, dir)
		path := filepath.Join(dir, o.files[int(file)%len(o.files)])
		b := fs.read(path)
		if len(b) == 0 {
			t.Fatalf("%s is empty after the scenario", path)
		}
		// The first sealed-log record's length, for the record-granular ops
		// (a file that is not a log is just cut in half).
		first := len(b) / 2
		if len(b) >= 4 {
			if n := 4 + int(binary.LittleEndian.Uint32(b)); n < len(b) {
				first = n
			}
		}
		switch op % 6 {
		case 0: // flip bits in one byte
			b[int(pos)%len(b)] ^= val | 1
		case 1: // truncate
			b = b[:int(pos)%(len(b)+1)]
		case 2: // reorder: swap the first record with what follows it
			b = append(append(append([]byte{}, b[first:min(2*first, len(b))]...), b[:first]...), b[min(2*first, len(b)):]...)
		case 3: // append garbage
			for i := 0; i < int(pos%64)+1; i++ {
				b = append(b, val)
			}
		case 4: // replay: append a copy of the first record
			b = append(b, b[:first]...)
		case 5: // excise the first record
			b = b[first:]
		}
		fs.put(path, b)
		if err := o.c.check(t, fs.kept(true), dir, total, true); err != nil && !errors.Is(err, enclave.ErrIntegrity) {
			t.Fatalf("mutating %s (op %d): %v", filepath.Base(path), op%6, err)
		}
	})
}

func FuzzJournalEpochDecode(f *testing.F) {
	for _, shape := range []struct{ L, S, R int }{{1, 1, 0}, {1, 2, 3}, {2, 3, 5}, {3, 1, 1}} {
		e := testEpochRec(7, shape.L, shape.S, shape.R, testBlock)
		b, err := e.encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		e.ACLOK = false
		for i := range e.Planes {
			e.Planes[i].Denied = nil
		}
		if b, err = e.encode(nil); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeJournalEpoch(b)
		if err != nil {
			return
		}
		again, err := e.encode(nil)
		if err != nil {
			t.Fatalf("decoded epoch does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding changed the payload:\n got %x\nwant %x", again, b)
		}
	})
}
