package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"placeless/internal/sig"
)

// Segments: the one durable log of the store. Each segment is an
// append-only file of self-describing records,
//
//	magic  (4 bytes, "PLSG" for a blob, "PLMT" for a metadata record)
//	length (4 bytes, little-endian payload size)
//	sig    (16 bytes, content signature of the payload: sig.Of, SHA-256/128)
//	crc    (4 bytes, little-endian CRC-32 (IEEE) of sig ‖ payload)
//	payload
//
// A blob's payload is the bytes themselves; a metadata record's is the
// JSON of one metaRecord (an entry, an intermediate or an epoch). The
// segments carry no other structure: the blob index and the metadata
// maps are rebuilt by one scan on open that walks every segment in
// order and applies its records in append order, the same
// recovery-by-replay shape as the server's configuration journal, in
// binary form. A record is trusted only if its magic, bounds, CRC, and
// content signature all check out; the first record that fails ends
// the scan of its segment, because everything after an append-stream
// corruption is unordered garbage. The active (highest-numbered)
// segment is physically truncated back to its last valid record so the
// next append lands on a clean boundary — a torn final write (power cut
// mid-append) therefore costs exactly the record being written, never
// an earlier one. The store appends records a batch at a time (see
// store.go), so a power cut can tear a batch anywhere; the same scan
// then keeps the batch's whole records and drops the torn one and
// everything after it. A metadata record is always appended after the
// blob it names, so no cut keeps an entry whose blob it lost.

// The two magics brand every record. Four literal bytes rather than an
// integer so the on-disk format is byte-order-independent by
// construction for the magic itself.
var (
	segMagic  = [4]byte{'P', 'L', 'S', 'G'}
	metaMagic = [4]byte{'P', 'L', 'M', 'T'}
)

// recordHeaderSize is the fixed prefix before the payload.
const recordHeaderSize = 4 + 4 + sig.Size + 4

// segmentPattern names segment files; the numeric component orders
// them, and scanning walks them in that order.
const segmentPattern = "seg-%06d.plseg"

// blobRef locates one payload inside the segment set.
type blobRef struct {
	seg    int
	offset int64 // of the payload, past the header
	size   int64
}

// appendRecord appends one record (header + payload) to dst. The
// caller vouches that sg is the payload's content signature: Open ends
// a segment's scan at the first record whose signature does not match
// its bytes, so one wrong signature here would cost every later record.
func appendRecord(dst []byte, magic [4]byte, sg sig.Signature, payload []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, sg[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, recordCRC(sg, payload))
	return append(dst, payload...)
}

// segmentName returns the file name of segment n.
func segmentName(n int) string { return fmt.Sprintf(segmentPattern, n) }

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), segmentPattern, &n); err == nil && e.Name() == segmentName(n) {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// scanSegment replays segment seg, open as f, into s: blobs into the
// index, metadata records into the maps, in append order. It reads the
// file front to back once and returns the offset just past the last
// valid record and the file's size. It never returns an error for
// corruption — corruption is a recoverable state, answered by stopping
// at the last valid record — only for I/O failures reading the file.
func (s *Store) scanSegment(f *os.File, seg int) (validEnd, size int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = info.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	var header [recordHeaderSize]byte
	var payload []byte
	for size-validEnd >= recordHeaderSize { // else a torn header, or a clean EOF
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return validEnd, size, err
		}
		magic := [4]byte(header[0:4])
		if magic != segMagic && magic != metaMagic {
			break // corrupt magic: nothing after it is trustworthy
		}
		plen := int64(binary.LittleEndian.Uint32(header[4:8]))
		if plen > size-validEnd-recordHeaderSize {
			break // length runs past EOF: torn final write
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return validEnd, size, err
		}
		sg := sig.Signature(header[8 : 8+sig.Size])
		if recordCRC(sg, payload) != binary.LittleEndian.Uint32(header[8+sig.Size:]) || sig.Of(payload) != sg {
			break // flipped bits in header or payload
		}
		if magic == segMagic {
			s.refs[sg] = blobRef{seg: seg, offset: validEnd + recordHeaderSize, size: plen}
		} else {
			s.replayMeta(payload)
		}
		validEnd += recordHeaderSize + plen
	}
	return validEnd, size, nil
}

// openSegments opens and scans every segment in dir, creating the
// first when there is none, truncates the active segment's invalid
// tail, and returns the bytes lost to torn or corrupt tails.
func (s *Store) openSegments() (lost int64, err error) {
	nums, err := listSegments(s.dir)
	if err != nil {
		return 0, err
	}
	if len(nums) == 0 {
		nums = []int{1}
	}
	var activeTorn bool
	for _, n := range nums {
		f, err := os.OpenFile(filepath.Join(s.dir, segmentName(n)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return 0, err
		}
		s.files[n] = f
		validEnd, size, err := s.scanSegment(f, n)
		if err != nil {
			return 0, err
		}
		lost += size - validEnd
		s.active, s.activeEnd, activeTorn = n, validEnd, size > validEnd
	}
	// Only the active segment is repaired in place: sealed segments
	// are never rewritten, their lost tails are simply not replayed. A
	// clean tail is not touched at all: the truncate would change
	// nothing but the file's times, and an origin restarting under the
	// live benchmark was once caught blocked in it for a minute.
	if activeTorn {
		if err := s.files[s.active].Truncate(s.activeEnd); err != nil {
			return 0, err
		}
	}
	return lost, nil
}
