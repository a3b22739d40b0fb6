package persist

import (
	"fmt"

	"snoopy/internal/store"
	"snoopy/internal/wirecode"
)

// walContext is the AAD context of write-ahead log records; a record's
// sequence number is the epoch of the batch it holds.
const walContext = "snoopy-persist/wal/v2"

// WALRecordLen is the exact number of bytes the log grows by for one n-row
// batch: a function of public parameters only (a partition's batch length
// is the public α).
func WALRecordLen(n, blockSize int) int {
	return logRecordLen(n * wirecode.KVRowLen(blockSize))
}

// sealWAL builds and seals the log record of one batch; l.write appends it.
// The record carries every batch row in the wirecode key/value row shape
// (so durable and wire representations cannot drift), so its size depends
// only on the public batch length. Read rows are re-keyed into the dummy
// space branch-free (the host cannot tell reads from writes); dummy rows
// are skipped at replay — which is also what keeps logs written when
// records were padded with dummy rows readable. The record is a function
// of the request batch alone — not of the partition's state — so it may be
// written before, after or during the scan.
func sealWAL(l *sealedLog, epoch uint64, reqs *store.Requests, blockSize int) error {
	rowLen := wirecode.KVRowLen(blockSize)
	n := reqs.Len()
	if n > (maxRecord-logRecordLen(0))/rowLen {
		return fmt.Errorf("persist: a batch of %d rows exceeds the %d-byte record limit", n, maxRecord)
	}
	rec := l.start(n * rowLen)
	rec = rec[:logHdrLen+n*rowLen]
	for r := 0; r < n; r++ {
		// A read contributes no state change: flip it into the dummy key
		// space with arithmetic on the op bit, not a branch, so the row
		// layout never depends on the secret op.
		key := reqs.Key[r] | uint64(reqs.Op[r]^store.OpWrite)<<63
		wirecode.PutKVRow(rec[logHdrLen+r*rowLen:][:rowLen], key, reqs.Block(r))
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
