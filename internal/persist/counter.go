package persist

import (
	"encoding/binary"
	"errors"
	"os"
	"sync"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/trace"
)

// counterContext is the AAD context for the epoch counter's slots.
const counterContext = "snoopy-persist/counter/v2"

// The counter file is two sealed slots, each at the start of its own
// 4096-byte device block so a torn write of one cannot damage the other.
// Value v lives in slot v%2 and the AAD binds the slot index; the higher
// authentic slot wins, as segstore's slot pairs do.
const (
	counterSlotStride = 4096
	counterSlotLen    = 8 + crypt.Overhead
	counterFileLen    = 2 * counterSlotStride
)

// FileCounter is the trusted monotonic epoch counter of paper §9 (the ROTE
// / SGX counter service), persisted to the state directory. An increment is
// one positional write over the older slot and one fdatasync; a crash
// mid-write leaves the other slot, holding the previous value, intact: an
// increment that never returned.
//
// The counter is a file of its own, never a record in the log it guards,
// because it stands in for hardware: *monotonicity* across restarts is what
// real counter hardware provides and this simulation assumes, so the host
// cannot revert this file together with the data files. A counter inside the
// log would be rewound by the very truncation it exists to detect.
type FileCounter struct {
	mu  sync.Mutex
	d   *dir
	f   hostfs.File
	m   ioMeter
	val uint64
	err error // sticky persistence failure, surfaced by the Durable wrapper

	pt  [8]byte   // reused plaintext (a field so sealing it allocates nothing)
	buf []byte    // reused sealed slot
	aad [2][]byte // per-slot AAD
}

func counterAAD(slot byte) []byte { return aad(counterContext, []byte{slot}) }

// openCounter loads the counter file, creating it at zero when absent.
func openCounter(d *dir) (*FileCounter, error) {
	c := &FileCounter{d: d, m: newIOMeter(d.tel, "counter"), aad: [2][]byte{counterAAD(0), counterAAD(1)}}
	raw, err := d.readFile(counterFile)
	switch {
	case errors.Is(err, os.ErrNotExist):
		raw = make([]byte, counterFileLen)
		copy(raw, d.sealer.Seal(c.pt[:], c.aad[0]))
		if err := d.writeFileAtomic(counterFile, raw); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	case len(raw) != counterFileLen:
		return nil, errCorrupt("epoch counter file has %d bytes, want %d", len(raw), counterFileLen)
	}
	d.rec.Record(trace.KindFileRead, 0, len(raw))
	authentic := false
	for slot := 0; slot < 2; slot++ {
		pt, err := d.sealer.Open(raw[slot*counterSlotStride:][:counterSlotLen], c.aad[slot])
		if err != nil {
			continue
		}
		if v := binary.LittleEndian.Uint64(pt); v >= c.val {
			c.val, authentic = v, true
		}
	}
	if !authentic {
		return nil, errCorrupt("epoch counter file holds no authentic slot")
	}
	if c.f, err = d.fs.OpenFile(d.file(counterFile), os.O_RDWR); err != nil {
		return nil, err
	}
	return c, nil
}

// Increment advances the counter by one, durably — slot val%2 is overwritten
// and synced — and returns the new value. A persistence failure is sticky
// (see Err); the in-memory value still advances so callers observe monotone
// values.
func (c *FileCounter) Increment() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.val++
	binary.LittleEndian.PutUint64(c.pt[:], c.val)
	c.buf = c.d.sealer.SealAppend(c.buf[:0], c.pt[:], c.aad[c.val&1])
	off := int64(c.val&1) * counterSlotStride
	c.d.rec.Record(trace.KindFileWrite, int(off), len(c.buf))
	err := c.m.write(c.f, c.buf, off)
	if err == nil {
		err = c.m.sync(c.f)
	}
	if c.err == nil {
		c.err = err
	}
	return c.val
}

// Current returns the counter without advancing it.
func (c *FileCounter) Current() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Err returns the first persistence failure, if any. A counter with a
// non-nil Err no longer guarantees durability of its increments.
func (c *FileCounter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *FileCounter) close() error { return c.f.Close() }
