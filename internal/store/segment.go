package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"placeless/internal/sig"
)

// Binary blob segments: the durable half of the content-addressed
// store that holds the bytes themselves. Each segment is an
// append-only file of self-describing records,
//
//	magic  (4 bytes, "PLSG")
//	length (4 bytes, little-endian payload size)
//	sig    (16 bytes, content signature of the payload: sig.Of, SHA-256/128)
//	crc    (4 bytes, little-endian CRC-32 (IEEE) of sig ‖ payload)
//	payload
//
// and carries no other structure — the signature → (segment, offset)
// index is rebuilt by a full scan on open, the same recovery-by-replay
// shape as the server's configuration journal, in binary form. A
// record is trusted only if its magic, bounds, CRC, and content
// signature all check out; the first record that fails ends the scan
// of its segment, because everything after an append-stream corruption
// is unordered garbage. The active (highest-numbered) segment is
// physically truncated back to its last valid record so the next
// append lands on a clean boundary — a torn final write (power cut
// mid-append) therefore costs exactly the record being written, never
// an earlier one. The store appends records a batch at a time (see
// store.go), so a power cut can tear a batch anywhere; the same scan
// then keeps the batch's whole records and drops the torn one and
// everything after it.

// segMagic brands every record. Four literal bytes rather than an
// integer so the on-disk format is byte-order-independent by
// construction for the magic itself.
var segMagic = [4]byte{'P', 'L', 'S', 'G'}

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
func appendRecord(dst []byte, sg sig.Signature, payload []byte) []byte {
	dst = append(dst, segMagic[:]...)
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

// scanResult is what one segment scan recovered.
type scanResult struct {
	// refs are the valid records, in append order.
	refs map[sig.Signature]blobRef
	// validEnd is the offset just past the last valid record.
	validEnd int64
	// lostBytes counts bytes past validEnd (torn or corrupt tail).
	lostBytes int64
}

// scanSegment rebuilds the index of one segment file. It never
// returns an error for corruption — corruption is a recoverable state,
// answered by stopping at the last valid record — only for I/O
// failures reading the file at all.
func scanSegment(path string, seg int) (scanResult, error) {
	res := scanResult{refs: make(map[sig.Signature]blobRef)}
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return res, err
	}
	size := info.Size()

	var off int64
	header := make([]byte, recordHeaderSize)
	for {
		if size-off < recordHeaderSize {
			break // truncated header (or clean EOF at off == size)
		}
		if _, err := f.ReadAt(header, off); err != nil {
			return res, err
		}
		if [4]byte(header[0:4]) != segMagic {
			break // corrupt magic: nothing after it is trustworthy
		}
		plen := int64(binary.LittleEndian.Uint32(header[4:8]))
		if plen > size-off-recordHeaderSize {
			break // length runs past EOF: torn final write
		}
		var s sig.Signature
		copy(s[:], header[8:8+sig.Size])
		wantCRC := binary.LittleEndian.Uint32(header[8+sig.Size : recordHeaderSize])
		payload := make([]byte, plen)
		if _, err := io.ReadFull(io.NewSectionReader(f, off+recordHeaderSize, plen), payload); err != nil {
			return res, err
		}
		if recordCRC(s, payload) != wantCRC || sig.Of(payload) != s {
			break // flipped bits in header or payload
		}
		res.refs[s] = blobRef{seg: seg, offset: off + recordHeaderSize, size: plen}
		off += recordHeaderSize + plen
	}
	res.validEnd = off
	res.lostBytes = size - off
	return res, nil
}

// openSegments scans every segment in dir, truncates the active
// segment's invalid tail, and returns the merged index plus open
// read handles. The returned active handle is positioned for appends
// at validEnd.
func openSegments(dir string) (refs map[sig.Signature]blobRef, files map[int]*os.File, active int, activeEnd int64, lost int64, err error) {
	nums, err := listSegments(dir)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	refs = make(map[sig.Signature]blobRef)
	files = make(map[int]*os.File)
	cleanup := func() {
		for _, f := range files {
			f.Close()
		}
	}
	if len(nums) == 0 {
		nums = []int{1}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
			return nil, nil, 0, 0, 0, err
		}
	}
	var activeTorn bool
	for _, n := range nums {
		path := filepath.Join(dir, segmentName(n))
		res, err := scanSegment(path, n)
		if err != nil {
			cleanup()
			return nil, nil, 0, 0, 0, err
		}
		lost += res.lostBytes
		for s, ref := range res.refs {
			refs[s] = ref
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			cleanup()
			return nil, nil, 0, 0, 0, err
		}
		files[n] = f
		active, activeEnd, activeTorn = n, res.validEnd, res.lostBytes > 0
	}
	// Only the active segment is repaired in place: sealed segments
	// are never rewritten, their lost tails are simply not indexed. A
	// clean tail is not touched at all: the truncate would change
	// nothing but the file's times, and an origin restarting under the
	// live benchmark was once caught blocked in it for a minute.
	if f := files[active]; f != nil && activeTorn {
		if err := f.Truncate(activeEnd); err != nil {
			cleanup()
			return nil, nil, 0, 0, 0, err
		}
	}
	return refs, files, active, activeEnd, lost, nil
}
