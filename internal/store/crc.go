package store

import (
	"hash/crc32"

	"placeless/internal/sig"
)

// recordCRC covers signature ‖ payload with CRC-32 (IEEE). The CRC
// catches casual bit rot cheaply at scan time; the content-signature
// check behind it (sig.Of) is the authoritative content-address
// verification. Having both means a scan can reject a damaged record
// without rehashing the payload for the (common) case of a mangled
// header.
func recordCRC(s sig.Signature, payload []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(s[:])
	crc.Write(payload)
	return crc.Sum32()
}
