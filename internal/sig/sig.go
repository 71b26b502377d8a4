// Package sig computes content signatures for shared cache storage.
//
// The paper (§3, Cache Management) proposes mapping (document, user)
// pairs to a content signature such as an MD5 hash, and mapping
// signatures to the stored bytes, so that identical transformed
// content cached on behalf of different users is stored once. This
// package provides that signature type. It is SHA-256 truncated to
// 128 bits rather than MD5 (PAPER.md §2, substitutions): the cache and
// its memo layer trust that equal signatures mean equal bytes, and MD5
// chosen-prefix collisions are practical.
package sig

import (
	"crypto/sha256"
	"encoding/hex"
)

// Size is the byte length of a Signature, for fixed-width binary
// encodings (the wire's read response, the durable store's segment
// records).
const Size = 16

// Signature is the first Size bytes of the SHA-256 digest of document
// content. It is the one hash for content signatures, chain
// fingerprints and the durable store, on every host: there is no
// per-CPU choice, so two machines always agree on a signature.
type Signature [Size]byte

// Of returns the signature of data.
func Of(data []byte) Signature {
	if ofHook != nil {
		ofHook(len(data))
	}
	sum := sha256.Sum256(data)
	return Signature(sum[:Size])
}

// OfParts returns the signature of head ‖ tail, without joining them,
// and that of head alone, read off the same pass at the boundary: one
// hash proves both what a blob is and what it begins with.
func OfParts(head, tail []byte) (whole, prefix Signature) {
	if ofHook != nil {
		ofHook(len(head) + len(tail))
	}
	h := sha256.New()
	h.Write(head)
	var sum [sha256.Size]byte
	prefix = Signature(h.Sum(sum[:0])[:Size])
	h.Write(tail)
	whole = Signature(h.Sum(sum[:0])[:Size])
	return whole, prefix
}

// ofHook, when set, is told the length of every input Of and OfParts
// hash. Only this package's tests can set it (export_test.go): they pin
// how many times the miss path signs one body, which no other package
// can see.
var ofHook func(n int)

// String renders the signature as lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// Zero is the signature of no content; a convenient sentinel for
// "not yet computed".
var Zero Signature

// IsZero reports whether the signature is the zero sentinel.
func (s Signature) IsZero() bool { return s == Zero }
