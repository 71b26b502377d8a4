package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// filler is the document body after the stamp. It holds words both
// universal transforms rewrite (the spelling table and the French
// dictionary), so a read that skipped a transform returns different
// bytes, while neither table touches the stamp.
const filler = "teh documnet cache is active and the paper of the workshop is a system with property caching. "

// stampContent renders document content of exactly size bytes carrying
// its write version: "v%08d|<doc>|" and then filler.
func stampContent(doc string, version int64, size int) []byte {
	head := fmt.Sprintf("v%08d|%s|", version, doc)
	if len(head) >= size {
		return []byte(head)
	}
	out := make([]byte, size)
	copy(out, head)
	for i := len(head); i < size; i++ {
		out[i] = filler[(i-len(head))%len(filler)]
	}
	return out
}

// parseStamp recovers the version and document id from a body.
func parseStamp(body []byte) (version int64, doc string, ok bool) {
	if len(body) < 11 || body[0] != 'v' || body[9] != '|' {
		return 0, "", false
	}
	for _, c := range body[1:9] {
		if c < '0' || c > '9' {
			return 0, "", false
		}
		version = version*10 + int64(c-'0')
	}
	end := bytes.IndexByte(body[10:], '|')
	if end < 0 {
		return 0, "", false
	}
	return version, string(body[10 : 10+end]), true
}

// The personal watermark property appends "\n-- retrieved for U --\n".
var (
	bannerHead = []byte("\n-- retrieved for ")
	bannerTail = []byte(" --\n")
)

// parseBanner returns the user a trailing watermark names, or ok=false
// when the body carries none.
func parseBanner(body []byte) (user string, ok bool) {
	if !bytes.HasSuffix(body, bannerTail) {
		return "", false
	}
	i := bytes.LastIndex(body, bannerHead)
	if i < 0 {
		return "", false
	}
	return string(body[i+len(bannerHead) : len(body)-len(bannerTail)]), true
}

type pairKey struct{ doc, user int }

// viewKey identifies one deterministic output: the same document
// version seen through the same personal chain by the same user.
type viewKey struct {
	pairKey
	version     int64
	watermarked bool
}

// checker validates every body a worker reads. Each worker owns one:
// ops are partitioned by document, so no state is shared.
type checker struct {
	written map[int]int64 // doc → last version whose write was acked
	seen    map[pairKey]int64
	views   map[viewKey][sha256.Size]byte
	// stale counts reads older than the last acked write of their
	// document: the notifier protocol delivers invalidations
	// asynchronously, so this is lag, not an error.
	stale int64
}

func newChecker() *checker {
	return &checker{
		written: make(map[int]int64),
		seen:    make(map[pairKey]int64),
		views:   make(map[viewKey][sha256.Size]byte),
	}
}

// check returns nil when body is a legal read of (doc, user).
func (c *checker) check(doc, user int, docID, userName string, body []byte) error {
	v, gotDoc, ok := parseStamp(body)
	if !ok {
		return fmt.Errorf("%s/%s: no version stamp in %d-byte body", docID, userName, len(body))
	}
	if gotDoc != docID {
		return fmt.Errorf("%s/%s: body belongs to %s", docID, userName, gotDoc)
	}
	if v > c.written[doc] {
		return fmt.Errorf("%s/%s: version %d was never written (last %d)", docID, userName, v, c.written[doc])
	}
	pk := pairKey{doc, user}
	if last, ok := c.seen[pk]; ok && v < last {
		return fmt.Errorf("%s/%s: version went back from %d to %d", docID, userName, last, v)
	}
	c.seen[pk] = v
	marked, hasMark := parseBanner(body)
	if hasMark && marked != userName {
		return fmt.Errorf("%s/%s: watermark names %s", docID, userName, marked)
	}
	vk := viewKey{pk, v, hasMark}
	sum := sha256.Sum256(body)
	if prev, ok := c.views[vk]; ok {
		if prev != sum {
			return fmt.Errorf("%s/%s: version %d read back with different bytes", docID, userName, v)
		}
	} else {
		c.views[vk] = sum
	}
	if v < c.written[doc] {
		c.stale++
	}
	return nil
}
