package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"snoopy/internal/crypt"
	"snoopy/internal/hostfs"
	"snoopy/internal/trace"
)

// sealedLog is the one append-only sealed record stream under the partition
// write-ahead log and the root's epoch journal. A record is
//
//	u32 n | u64 seq | u8 kind | nonce | ciphertext | tag        (n counts what follows it)
//
// with AAD = context || seq || kind: the prefix is stored in the clear (the
// reader cannot know it in advance) but bound, so editing it breaks
// authentication. Record length is logRecordLen(len(plaintext)) — closed-form
// in whatever public parameters size the plaintext.
//
// One reader, one rule (replay): records must authenticate and carry
// consecutive sequence numbers; the first one that does not ends the log.
// Whether that end is a crash tail or a rollback is for its owner to say,
// against the trusted counter. Records are sealed in one reused buffer, so a
// steady-state append allocates nothing.
type sealedLog struct {
	d    *dir
	m    ioMeter
	f    hostfs.File
	off  int64  // append offset: the length of the valid prefix
	next uint64 // sequence number the next record must carry; 0 = any
	tail bool   // bytes beyond off await truncation (set by replay)
	err  error  // sticky I/O failure: the file's tail is no longer known

	buf []byte // the record being built, then its sealed image
	aad []byte // context || seq || kind
}

const (
	logPrefixLen = 8 + 1
	// logHdrLen is where a record's plaintext starts in the build buffer
	// (the ciphertext replaces it in place).
	logHdrLen = 4 + logPrefixLen + crypt.NonceSize
)

// logRecordLen is the framed size of a record with an n-byte plaintext.
func logRecordLen(n int) int { return 4 + logPrefixLen + n + crypt.Overhead }

// openLog opens the named log, making an absent one durably (a log whose
// directory entry a power loss could take reads as rolled back). label is
// the public telemetry label of its I/O counters. Nothing is read until
// replay.
func (d *dir) openLog(name, context, label string) (*sealedLog, error) {
	f, err := d.fs.OpenFile(d.file(name), os.O_RDWR)
	if errors.Is(err, os.ErrNotExist) {
		if f, err = d.fs.OpenFile(d.file(name), os.O_RDWR|os.O_CREATE); err == nil {
			if err = d.fs.SyncDir(d.path); err != nil {
				f.Close()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	l := &sealedLog{d: d, m: newIOMeter(d.tel, label), f: f}
	l.aad = append(append(l.aad, context...), make([]byte, logPrefixLen)...)
	return l, nil
}

// replaceLog atomically replaces the named log with the one fill builds in
// name.tmp, records numbered from first: the journal's compaction path, the
// only one that creates or renames a log. The returned log (non-nil
// once the rename happened) appends to the new file.
func (d *dir) replaceLog(name, context, label string, first uint64, fill func(*sealedLog) error) (*sealedLog, error) {
	l, err := d.openLog(name+".tmp", context, label)
	if err != nil {
		return nil, err
	}
	if err = l.cut(first); err == nil { // a crashed attempt's leftover
		if err = fill(l); err == nil {
			err = l.sync()
		}
	}
	if err == nil {
		err = d.fs.Rename(d.file(name+".tmp"), d.file(name))
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, d.fs.SyncDir(d.path)
}

// setAAD points the AAD at a record's prefix.
func (l *sealedLog) setAAD(prefix []byte) []byte {
	copy(l.aad[len(l.aad)-logPrefixLen:], prefix)
	return l.aad
}

// replay reads the log from its start, handing every record that passes the
// one rule to visit (the plaintext is valid only during the call). visit
// returns keep == false for a record past the trusted counter: it and all
// after it are the tail, which the first append truncates — a replay whose
// owner goes on to report rollback has changed nothing. why says what ended
// the log, for the owner's error message.
func (l *sealedLog) replay(visit func(seq uint64, kind uint8, plaintext []byte) (keep bool, err error)) (why string, err error) {
	size, err := l.f.Size()
	if err != nil {
		return "", err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), 1<<16)
	l.off, l.next, l.tail = 0, 0, false
	var pt []byte
	for {
		why = l.readRecord(r, size-l.off)
		if why != "" {
			break
		}
		body := l.buf[4:]
		seq, kind := binary.LittleEndian.Uint64(body), body[8]
		if l.next != 0 && seq != l.next {
			why = fmt.Sprintf("record %d follows record %d", seq, l.next-1)
			break
		}
		if pt, err = l.d.sealer.OpenAppend(pt[:0], body[logPrefixLen:], l.setAAD(body[:logPrefixLen])); err != nil {
			why = fmt.Sprintf("record %d failed authentication", seq)
			break
		}
		keep, err := visit(seq, kind, pt)
		if err != nil {
			return "", err
		}
		if !keep {
			why = fmt.Sprintf("record %d is past the trusted counter", seq)
			break
		}
		l.off += int64(len(l.buf))
		l.next = seq + 1
	}
	l.tail = l.off < size
	return why, nil
}

// readRecord reads the next framed record into l.buf, returning why it could
// not ("" when it could). left is the number of bytes from here to the end
// of the file.
func (l *sealedLog) readRecord(r *bufio.Reader, left int64) string {
	if left == 0 {
		return "end of file"
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "torn length word"
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n < logPrefixLen+crypt.Overhead || n > maxRecord || n > left-4 {
		return fmt.Sprintf("record of %d bytes with %d left", n, left-4)
	}
	if cap(l.buf) < int(4+n) {
		l.buf = make([]byte, 4+n)
	}
	l.buf = l.buf[:4+n]
	copy(l.buf, hdr[:])
	if _, err := io.ReadFull(r, l.buf[4:]); err != nil {
		return "torn record"
	}
	l.d.rec.Record(trace.KindFileRead, int(l.off), len(l.buf))
	return ""
}

// start returns the build buffer for a record whose plaintext will be n
// bytes: the caller appends exactly the plaintext and passes the result to
// seal.
func (l *sealedLog) start(n int) []byte {
	if need := logRecordLen(n); cap(l.buf) < need {
		l.buf = make([]byte, 0, need)
	}
	return l.buf[:logHdrLen]
}

// seal frames and seals, in place, the record start and the caller built. It
// touches no file: write does, and may run on another goroutine.
func (l *sealedLog) seal(seq uint64, kind uint8, rec []byte) {
	prefix := rec[4 : 4+logPrefixLen]
	binary.LittleEndian.PutUint64(prefix, seq)
	prefix[8] = kind
	binary.LittleEndian.PutUint32(rec, uint32(logRecordLen(len(rec)-logHdrLen)-4))
	l.buf = l.d.sealer.SealAppend(rec[:4+logPrefixLen], rec[logHdrLen:], l.setAAD(prefix))
	l.d.rec.Record(trace.KindFileWrite, int(l.off), len(l.buf))
	l.next = seq + 1
}

// write appends the sealed record, making it (and every unsynced record
// before it) durable when sync is set. A failure is sticky: what the file's
// tail holds is then unknown, so the log accepts nothing more.
func (l *sealedLog) write(sync bool) error {
	if l.err != nil {
		return l.err
	}
	if l.tail {
		if l.err = l.f.Truncate(l.off); l.err != nil {
			return l.err
		}
		l.tail = false
	}
	if l.err = l.m.write(l.f, l.buf, l.off); l.err != nil {
		return l.err
	}
	l.off += int64(len(l.buf))
	if sync {
		return l.sync()
	}
	return nil
}

// sync makes every record written so far durable.
func (l *sealedLog) sync() error {
	if l.err == nil {
		l.err = l.m.sync(l.f)
	}
	return l.err
}

// cut empties a log whose contents have been superseded, after which it
// expects record next (0: any).
func (l *sealedLog) cut(next uint64) error {
	if l.err != nil {
		return l.err
	}
	if l.err = l.f.Truncate(0); l.err != nil {
		return l.err
	}
	l.d.rec.Record(trace.KindFileWrite, 0, 0) // shape-only event
	l.off, l.next, l.tail = 0, next, false
	return nil
}

func (l *sealedLog) close() error { return l.f.Close() }
