package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"placeless/internal/sig"
)

// Records: the one on-disk format of this package, shared by the
// store's segments and by the server's configuration journal (see Log).
// A file is a run of self-describing records,
//
//	magic  (4 bytes, the record's kind)
//	length (4 bytes, little-endian payload size)
//	sig    (16 bytes, content signature of the payload: sig.Of, SHA-256/128)
//	crc    (4 bytes, little-endian CRC-32 (IEEE) of sig ‖ payload)
//	payload
//
// and nothing else. A record is trusted only if its magic is one its
// file holds and its CRC and content signature check out. One scan
// (scanRecords) reads a file front to back and stops at the first
// record that fails, because everything after an append-stream
// corruption is unordered garbage; one tail (tail) appends and stops
// for good at the first write that fails.

// The three magics brand every record: a blob and a metadata record in
// a segment, a configuration entry in a journal. Four literal bytes
// rather than an integer so the on-disk format is byte-order-independent
// by construction for the magic itself.
var (
	segMagic  = [4]byte{'P', 'L', 'S', 'G'}
	metaMagic = [4]byte{'P', 'L', 'M', 'T'}
	logMagic  = [4]byte{'P', 'L', 'J', 'N'}
)

// recordHeaderSize is the fixed prefix before the payload.
const recordHeaderSize = 4 + 4 + sig.Size + 4

// appendRecord appends one record (header + payload) to dst. The
// caller vouches that sg is the payload's content signature: a scan
// stops at the first record whose signature does not match its bytes,
// so one wrong signature here would cost every later record.
func appendRecord(dst []byte, magic [4]byte, sg sig.Signature, payload []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, sg[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, recordCRC(sg, payload))
	return append(dst, payload...)
}

// recordCRC covers signature ‖ payload with CRC-32 (IEEE). The CRC
// catches casual bit rot cheaply at scan time; the content-signature
// check behind it (sig.Of) is the authoritative content-address
// verification. Having both means a scan can reject a damaged record
// without rehashing the payload for the (common) case of a mangled
// header.
//
// The signature's sixteen bytes go through the table by hand: handed to
// crc32.Update, which dispatches through a function value, they would
// escape, and every record would allocate a copy of them.
func recordCRC(s sig.Signature, payload []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range s {
		crc = crc32.IEEETable[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, payload)
}

// scan is what scanRecords found: the valid records end at end, the
// file at size. torn reports that the bytes between are a strict
// prefix of a record — part of a magic the file holds, part of a
// header, or a whole header whose length runs past the end of the file
// — which is what an append cut short leaves; any other remainder is
// corruption.
type scan struct {
	end, size int64
	torn      bool
}

// scanRecords reads f front to back once and calls fn, in append
// order, for each record that carries one of magics and verifies, with
// the offset of its header; payload is only valid during the call. It
// stops at the first record that does not. Only an I/O failure or fn's
// error is an error: a failed record is a state, reported in the scan.
func scanRecords(f *os.File, magics [][4]byte, fn func(off int64, magic [4]byte, sg sig.Signature, payload []byte) error) (scan, error) {
	info, err := f.Stat()
	if err != nil {
		return scan{}, err
	}
	sc := scan{size: info.Size()}
	r := bufio.NewReaderSize(f, 64<<10)
	var header [recordHeaderSize]byte
	var payload []byte
	for sc.end < sc.size {
		rest := sc.size - sc.end
		h := header[:min(rest, recordHeaderSize)]
		if _, err := io.ReadFull(r, h); err != nil {
			return sc, err
		}
		known := false
		for _, m := range magics {
			known = known || bytes.HasPrefix(m[:], h[:min(len(h), 4)])
		}
		if !known {
			return sc, nil // not a record of this file: nothing after it is trustworthy
		}
		plen := int64(binary.LittleEndian.Uint32(header[4:8])) // stale, and unread, when h is short
		if len(h) < recordHeaderSize || plen > rest-recordHeaderSize {
			sc.torn = true // the file ends inside this record
			return sc, nil
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return sc, err
		}
		sg := sig.Signature(header[8 : 8+sig.Size])
		if recordCRC(sg, payload) != binary.LittleEndian.Uint32(header[8+sig.Size:]) || sig.Of(payload) != sg {
			return sc, nil // flipped bits in header or payload
		}
		if err := fn(sc.end, [4]byte(h[:4]), sg, payload); err != nil {
			return sc, err
		}
		sc.end += recordHeaderSize + plen
	}
	return sc, nil
}

// ErrWriteFailed is wrapped by every error a file's appends return once
// one of its writes has failed.
var ErrWriteFailed = errors.New("store: write failed")

// tail is where a file's next record goes and whether it may go there
// at all. failed is the first write that failed; it is never cleared,
// because that write may have left part of a record at end, and
// nothing may be appended after it until a scan on open has truncated
// it.
type tail struct {
	end    int64
	failed error
}

// write writes p at the tail of f, or returns the failure that stopped
// the tail.
func (t *tail) write(f *os.File, p []byte) error {
	if t.failed == nil && len(p) > 0 {
		if _, err := f.WriteAt(p, t.end); err != nil {
			t.failed = fmt.Errorf("%w: %w", ErrWriteFailed, err)
		} else {
			t.end += int64(len(p))
		}
	}
	return t.failed
}

// CorruptError is OpenLog's refusal of a file whose bytes after its
// last valid record are not a torn append: a record that fails its
// checks, or bytes that are not a record of a log at all (a segment's
// records, or a journal from before logs were records). OpenLog leaves
// such a file as it found it.
type CorruptError struct {
	Path   string
	Offset int64 // of the first byte that is not a valid record
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: no valid record at offset %d", e.Path, e.Offset)
}

// Log is a file of records of one kind, replayed whole on open and
// appended to a record at a time: the server's configuration journal.
// It is not safe for concurrent use.
type Log struct {
	f    *os.File
	tail tail
}

// OpenLog opens the log at path, creating it if absent, and hands apply
// each record's payload in append order, with its offset. A torn final
// append is truncated away and its length returned; any other remainder
// is a *CorruptError, and the file is left unchanged. An error from
// apply stops the open, with the file unchanged too.
func OpenLog(path string, apply func(off int64, payload []byte) error) (*Log, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	sc, err := scanRecords(f, [][4]byte{logMagic}, func(off int64, _ [4]byte, _ sig.Signature, payload []byte) error {
		if err := apply(off, payload); err != nil {
			return fmt.Errorf("store: %s: record at offset %d: %w", path, off, err)
		}
		return nil
	})
	switch {
	case err != nil:
	case sc.torn:
		err = f.Truncate(sc.end)
	case sc.end < sc.size:
		err = &CorruptError{Path: path, Offset: sc.end}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Log{f: f, tail: tail{end: sc.end}}, sc.size - sc.end, nil
}

// Append writes one record of payload at the log's end. Once a write
// has failed, it and every later Append return that failure, wrapping
// ErrWriteFailed, and write nothing: reopen the log to repair it.
func (l *Log) Append(payload []byte) error {
	return l.tail.write(l.f, appendRecord(nil, logMagic, sig.Of(payload), payload))
}

// Err returns the failure that stops the log's appends, or nil while
// they go through.
func (l *Log) Err() error { return l.tail.failed }

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }
