// Package sig computes content signatures for shared cache storage.
//
// The paper (§3, Cache Management) proposes mapping (document, user)
// pairs to a content signature such as an MD5 hash, and mapping
// signatures to the stored bytes, so that identical transformed
// content cached on behalf of different users is stored once. This
// package provides that signature type.
package sig

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
)

// Signature is an MD5 digest of document content. The paper names MD5
// explicitly; it is used here for content equality, not security.
type Signature [md5.Size]byte

// Size is the byte length of a Signature, for fixed-width binary
// encodings (the durable store's segment records).
const Size = md5.Size

// Of returns the signature of data.
func Of(data []byte) Signature {
	if ofHook != nil {
		ofHook(len(data))
	}
	return md5.Sum(data)
}

// ofHook, when set, is told the length of every input Of hashes. Only
// this package's tests can set it (export_test.go): they pin how many
// times the miss path signs one body, which no other package can see.
var ofHook func(n int)

// String renders the signature as lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// Zero is the signature of no content; a convenient sentinel for
// "not yet computed".
var Zero Signature

// IsZero reports whether the signature is the zero sentinel.
func (s Signature) IsZero() bool { return s == Zero }

// MarshalText implements encoding.TextMarshaler, rendering the
// signature as lowercase hex — the representation used by the durable
// store's JSON-lines meta log and any other textual persistence.
func (s Signature) MarshalText() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(s)))
	hex.Encode(out, s[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting exactly
// the output of MarshalText.
func (s *Signature) UnmarshalText(text []byte) error {
	parsed, ok := Parse(string(text))
	if !ok {
		return fmt.Errorf("sig: malformed signature %q", text)
	}
	*s = parsed
	return nil
}

// Parse decodes a hex string produced by String. It reports ok=false
// for malformed input.
func Parse(s string) (Signature, bool) {
	var out Signature
	if len(s) != hex.EncodedLen(md5.Size) {
		return out, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, false
	}
	copy(out[:], b)
	return out, true
}
