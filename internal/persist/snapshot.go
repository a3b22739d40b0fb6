package persist

import (
	"encoding/binary"
	"fmt"

	"snoopy/internal/store"
)

// The snapshot file is a sealed log of its own: record 1 is the header,
// record 2+c is chunk c. The log's rule gives chunk order and authenticity;
// each chunk's plaintext opens with the snapshot epoch, so a chunk of an
// older snapshot spliced in at its own position is refused too.
const (
	snapContext    = "snoopy-persist/snapshot/v2"
	snapKindHeader = 1
	snapKindChunk  = 2
	snapHeaderLen  = 8 + 8 + 4 + 4 // epoch | n | blockSize | chunkBlocks
)

// writeSnapshot writes the full partition image at the given epoch in a
// single sequential pass: one sealed header, then ceil(n/chunkBlocks)
// equal-sized sealed chunks — an I/O shape that depends only on (n,
// blockSize, chunkBlocks). The file replaces any previous snapshot
// atomically.
func (d *dir) writeSnapshot(epoch uint64, ids []uint64, data []byte, blockSize, chunkBlocks int) error {
	n := len(ids)
	if len(data) != n*blockSize {
		return fmt.Errorf("persist: snapshot data length %d != %d objects × %d bytes", len(data), n, blockSize)
	}
	le := binary.LittleEndian
	l, err := d.replaceLog(snapshotFile, snapContext, "snapshot", 1, func(l *sealedLog) error {
		hdr := le.AppendUint64(le.AppendUint64(l.start(snapHeaderLen), epoch), uint64(n))
		l.seal(1, snapKindHeader, le.AppendUint32(le.AppendUint32(hdr, uint32(blockSize)), uint32(chunkBlocks)))
		if err := l.write(false); err != nil {
			return err
		}
		for base := 0; base < n; base += chunkBlocks {
			rec := le.AppendUint64(l.start(8+chunkBlocks*(8+blockSize)), epoch)
			for i := base; i < base+chunkBlocks; i++ {
				if i < n {
					rec = append(le.AppendUint64(rec, ids[i]), data[i*blockSize:(i+1)*blockSize]...)
				} else {
					// Pad the last chunk with dummy rows so every chunk's
					// plaintext — and therefore ciphertext — has one fixed size.
					rec = le.AppendUint64(rec, store.DummyKeyBit)
					rec = rec[:len(rec)+blockSize]
					clear(rec[len(rec)-blockSize:])
				}
			}
			l.seal(l.next, snapKindChunk, rec)
			if err := l.write(false); err != nil {
				return err
			}
		}
		return nil
	})
	if l != nil {
		l.close()
	}
	return err
}

// readSnapshot loads and authenticates the snapshot, returning the sealed
// epoch and partition image. os.ErrNotExist is passed through when no
// snapshot has ever been written.
func (d *dir) readSnapshot() (epoch uint64, ids []uint64, data []byte, blockSize int, err error) {
	l, err := d.openLog(snapshotFile, snapContext, "snapshot", false)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	defer l.close()
	le := binary.LittleEndian
	n, chunkBlocks := -1, 0
	why, err := l.replay(func(seq uint64, kind uint8, pt []byte) (bool, error) {
		switch {
		case seq == 1 && kind == snapKindHeader && len(pt) == snapHeaderLen:
			epoch, blockSize, chunkBlocks = le.Uint64(pt), int(le.Uint32(pt[16:])), int(le.Uint32(pt[20:]))
			// Authenticated fields can still be hostile when the sealing
			// key file was swapped; bound them before they size anything.
			hn := le.Uint64(pt[8:])
			if hn > 1<<40 || blockSize == 0 || blockSize > 1<<20 ||
				chunkBlocks == 0 || chunkBlocks > 1<<16 || chunkBlocks*(8+blockSize) > maxRecord {
				return false, errCorrupt("snapshot geometry n=%d block=%d chunk=%d out of range", hn, blockSize, chunkBlocks)
			}
			n = int(hn)
			ids, data = make([]uint64, 0, n), make([]byte, 0, n*blockSize)
		case n >= 0 && kind == snapKindChunk && len(pt) == 8+chunkBlocks*(8+blockSize) && le.Uint64(pt) == epoch:
			for row := pt[8:]; len(row) > 0 && len(ids) < n; row = row[8+blockSize:] {
				id := le.Uint64(row)
				if store.IsDummyKey(id) {
					return false, errCorrupt("snapshot chunk %d carries a dummy id before row %d", seq-2, n)
				}
				ids, data = append(ids, id), append(data, row[8:8+blockSize]...)
			}
		default:
			return false, errCorrupt("snapshot record %d (kind %d, %d bytes) out of place", seq, kind, len(pt))
		}
		return len(ids) < n, nil
	})
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if len(ids) != n {
		return 0, nil, nil, 0, errCorrupt("snapshot holds %d of %d objects: %s", len(ids), n, why)
	}
	return epoch, ids, data, blockSize, nil
}
