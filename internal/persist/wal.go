package persist

import (
	"fmt"

	"snoopy/internal/store"
	"snoopy/internal/wirecode"
)

// walContext is the AAD context of write-ahead log records; a record's
// sequence number is the epoch of the delivery it holds.
const walContext = "snoopy-persist/wal/v2"

// WALRecordLen is the exact number of bytes the log grows by for one
// delivery of n rows in all (L batches of the public α): a function of
// public parameters only.
func WALRecordLen(n, blockSize int) int {
	return logRecordLen(n * wirecode.KVRowLen(blockSize))
}

// sealWAL builds and seals the log record of one delivery, its batches'
// rows in order (replay applies them as the partition did); l.write appends
// it. Every row is in the wirecode key/value row shape (durable and wire
// representations cannot drift), so the size depends only on the public
// batch lengths. Read rows are re-keyed into the dummy space branch-free
// (the host cannot tell reads from writes); dummy rows are skipped at
// replay. The record is a function of the requests alone, not of the
// partition's state, so it may be written during the scans.
func sealWAL(l *sealedLog, epoch uint64, reqs []*store.Requests, blockSize int) error {
	rowLen := wirecode.KVRowLen(blockSize)
	n := 0
	for _, r := range reqs {
		n += r.Len()
	}
	if n > (maxRecord-logRecordLen(0))/rowLen {
		return fmt.Errorf("persist: a delivery of %d rows exceeds the %d-byte record limit", n, maxRecord)
	}
	rec := l.start(n * rowLen)
	rec = rec[:logHdrLen+n*rowLen]
	row := rec[logHdrLen:]
	for _, r := range reqs {
		for i := 0; i < r.Len(); i++ {
			// A read contributes no state change: flip it into the dummy key
			// space with arithmetic on the op bit, not a branch, so the row
			// layout never depends on the secret op.
			key := r.Key[i] | uint64(r.Op[i]^store.OpWrite)<<63
			wirecode.PutKVRow(row[:rowLen], key, r.Block(i))
			row = row[rowLen:]
		}
	}
	l.seal(epoch, 0, rec)
	return nil
}

// forEachWrite calls fn for every row of a WAL record that changes state:
// rows keyed outside the dummy space. Rows whose length does not fit the
// block size mean the record was written under another geometry.
func forEachWrite(rows []byte, blockSize int, fn func(key uint64, value []byte)) error {
	rowLen := wirecode.KVRowLen(blockSize)
	if len(rows)%rowLen != 0 {
		return errCorrupt("log record of %d bytes is not rows of %d", len(rows), rowLen)
	}
	for ; len(rows) > 0; rows = rows[rowLen:] {
		if key := wirecode.KVRowKey(rows[:rowLen]); !store.IsDummyKey(key) {
			fn(key, wirecode.KVRowValue(rows[:rowLen]))
		}
	}
	return nil
}
