package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"placeless/internal/sig"
)

// Segments: the one durable log of the store, append-only files of
// records (record.go) of two kinds: a blob ("PLSG"), whose payload is
// the bytes themselves, and a metadata record ("PLMT"), whose payload
// is one entry, intermediate or epoch in the binary layout of meta.go.
// Open rebuilds the blob index and the metadata maps by one scan of
// every segment in order. The first record that fails ends its
// segment's scan, torn or corrupt alike (a journal record too), and the
// active segment is truncated back to its last valid record, so a torn
// write — of one record or anywhere in a batch (store.go) — costs the
// record being written and those after it, never an earlier one. A
// metadata record always follows the blob it names, so no cut keeps an
// entry whose blob it lost.

// segmentPattern names segment files; the numeric component orders
// them, and scanning walks them in that order.
const segmentPattern = "seg-%06d.plseg"

// blobRef locates one payload inside the segment set.
type blobRef struct {
	seg    int
	offset int64 // of the payload, past the header
	size   int64
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
	var repair bool
	for _, n := range nums {
		f, err := os.OpenFile(filepath.Join(s.dir, segmentName(n)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return 0, err
		}
		s.files[n] = f
		sc, err := scanRecords(f, [][4]byte{segMagic, metaMagic}, func(off int64, magic [4]byte, sg sig.Signature, payload []byte) error {
			if magic == segMagic {
				s.refs[sg] = blobRef{seg: n, offset: off + recordHeaderSize, size: int64(len(payload))}
			} else {
				s.replayMeta(payload)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		lost += sc.size - sc.end
		s.active, s.tail.end, repair = n, sc.end, sc.size > sc.end
	}
	// Only the active segment is repaired in place: sealed segments
	// are never rewritten, their lost tails are simply not replayed. A
	// clean tail is not touched at all: the truncate would change
	// nothing but the file's times, and an origin restarting under the
	// live benchmark was once caught blocked in it for a minute.
	if repair {
		if err := s.files[s.active].Truncate(s.tail.end); err != nil {
			return 0, err
		}
	}
	return lost, nil
}
