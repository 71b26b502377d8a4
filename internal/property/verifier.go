package property

import (
	"errors"
	"fmt"
	"time"

	"placeless/internal/repo"
)

// TTLVerifier invalidates a cache entry once a freshness deadline
// passes — the mechanism web servers of the era offered, implemented
// at the cache exactly as the paper suggests: "if the cached document
// were a WWW document, the verifier could implement the TTL timeout as
// specified in the HTTP response."
type TTLVerifier struct {
	// Expiry is the instant after which the entry is invalid.
	Expiry time.Time
}

// Name implements Verifier.
func (TTLVerifier) Name() string { return "ttl" }

// Check implements Verifier: valid while now <= Expiry.
func (v TTLVerifier) Check(now time.Time) (bool, error) {
	return !now.After(v.Expiry), nil
}

// NewTTLVerifier builds a TTLVerifier expiring ttl after fetch time.
func NewTTLVerifier(fetched time.Time, ttl time.Duration) TTLVerifier {
	return TTLVerifier{Expiry: fetched.Add(ttl)}
}

// EarliestTTL returns the earliest TTLVerifier deadline in a verifier
// set, or the zero time when none applies. Unlike verifier code, a
// deadline can cross the wire, so it is what a read hands to caches
// layered further out.
func EarliestTTL(verifiers []Verifier) time.Time {
	var min time.Time
	for _, v := range verifiers {
		if ttl, ok := v.(TTLVerifier); ok {
			if min.IsZero() || ttl.Expiry.Before(min) {
				min = ttl.Expiry
			}
		}
	}
	return min
}

// MTimeVerifier polls the original repository's modification time on
// every cache hit and invalidates when the source changed — the
// paper's example of the bit-provider returning "a verifier that polls
// the last-modification time of the file". Each Check performs a Stat,
// charging that round trip to the simulation clock; this is the
// latency side of the verifier-vs-notifier tradeoff measured in
// experiment E1.
type MTimeVerifier struct {
	// Repo is the original source.
	Repo repo.Repository
	// Path is the document's path within Repo.
	Path string
	// ModTime, Version and Size are the source metadata captured at
	// fetch time; a change in any of them invalidates. Size catches an
	// out-of-band rewrite that restored the mtime (cp -p, rsync -t)
	// but not the length.
	ModTime time.Time
	Version int64
	Size    int64
}

// Name implements Verifier.
func (v MTimeVerifier) Name() string { return "mtime:" + v.Repo.Name() }

// Check implements Verifier by polling the source.
func (v MTimeVerifier) Check(time.Time) (bool, error) {
	meta, err := v.Repo.Stat(v.Path)
	if err != nil {
		return false, err
	}
	return meta.ModTime.Equal(v.ModTime) && meta.Version == v.Version && meta.Size == v.Size, nil
}

// FuncVerifier adapts an arbitrary predicate, for property-specific
// validity conditions.
type FuncVerifier struct {
	// VerifierName is returned by Name.
	VerifierName string
	// Fn is the validity predicate.
	Fn func(now time.Time) (bool, error)
}

// Name implements Verifier.
func (f FuncVerifier) Name() string { return f.VerifierName }

// Check implements Verifier.
func (f FuncVerifier) Check(now time.Time) (bool, error) {
	if f.Fn == nil {
		return false, errors.New("property: FuncVerifier with nil Fn")
	}
	return f.Fn(now)
}

// Composite combines verifiers for documents assembled from several
// sources ("news summaries constructed from several web sites; in that
// case, verifiers can check the consistency of each of the sources").
// The entry is valid only if every part is.
type Composite struct {
	// Parts are the per-source verifiers.
	Parts []Verifier
}

// Name implements Verifier.
func (c Composite) Name() string { return fmt.Sprintf("composite(%d)", len(c.Parts)) }

// Check implements Verifier: all parts must pass. Checking stops at
// the first failure, so cheap verifiers should be listed first.
func (c Composite) Check(now time.Time) (bool, error) {
	for _, p := range c.Parts {
		ok, err := p.Check(now)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Threshold invalidates only when an external numeric source has
// drifted beyond a tolerance — the paper's "financial portfolio page"
// example where "the verifier may invalidate the cached entry only if
// there has been significant change in the stock quotes". Small
// fluctuations keep serving the cached page.
type Threshold struct {
	// VerifierName labels the tracked quantity.
	VerifierName string
	// Source samples the external value (e.g. a stock quote).
	Source func() float64
	// Reference is the value embedded in the cached content.
	Reference float64
	// Tolerance is the maximum |source - reference| considered
	// insignificant.
	Tolerance float64
}

// Name implements Verifier.
func (t Threshold) Name() string { return "threshold:" + t.VerifierName }

// Check implements Verifier.
func (t Threshold) Check(time.Time) (bool, error) {
	if t.Source == nil {
		return false, errors.New("property: Threshold with nil Source")
	}
	diff := t.Source() - t.Reference
	if diff < 0 {
		diff = -diff
	}
	return diff <= t.Tolerance, nil
}
