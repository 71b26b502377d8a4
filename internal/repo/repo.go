// Package repo implements the content repositories that Placeless
// documents originate from.
//
// The paper stresses that documents come "from arbitrary content
// sources: file systems, the World Wide Web, servers, document
// management systems, live video feeds" and that these sources differ
// in the cache-consistency mechanisms they offer (§3). This package
// provides one repository per source class, each reproducing that
// source's distinguishing behaviour:
//
//   - Mem / FS: mutable storage with modification times; supports both
//     updates through Placeless and direct out-of-band updates, the
//     paper's dual update model.
//   - Web: read-mostly pages with an HTTP-style TTL hint; pages can
//     change at the origin without notification.
//   - DMS: a versioned document-management store where every mutation
//     creates a new immutable version.
//   - LiveFeed: content that differs on every fetch (live video), the
//     canonical uncacheable source.
//
// Every repository charges simulated retrieval time on a shared clock
// through a simnet.Path, which is what lets the benchmark harness
// reproduce the access-time shape of the paper's Table 1.
package repo

import (
	"errors"
	"fmt"
	"time"

	"placeless/internal/clock"
	"placeless/internal/simnet"
)

// Well-known repository errors.
var (
	// ErrNotFound indicates the path does not exist in the repository.
	ErrNotFound = errors.New("repo: document not found")
	// ErrReadOnly indicates the repository rejects stores.
	ErrReadOnly = errors.New("repo: repository is read-only")
)

// Meta describes a stored document without its content.
type Meta struct {
	// Size is the content length in bytes.
	Size int64
	// ModTime is the repository's last-modification time.
	ModTime time.Time
	// Version counts mutations; it increases monotonically per path.
	Version int64
	// TTL is the repository's freshness hint (HTTP-style); zero
	// means the repository offers none.
	TTL time.Duration
}

// FetchResult is the outcome of retrieving content.
type FetchResult struct {
	// Data is the document content.
	Data []byte
	// Meta describes the fetched version.
	Meta Meta
	// Cost is the simulated retrieval time that was charged.
	Cost time.Duration
}

// Repository is a source of document content. Implementations are safe
// for concurrent use.
type Repository interface {
	// Name identifies the repository in traces and costs.
	Name() string
	// Fetch retrieves the current content at path, charging the
	// simulated transfer cost to the repository clock.
	Fetch(path string) (*FetchResult, error)
	// Store replaces the content at path (creating it if absent),
	// charging transfer cost. It does not retain data. Read-only
	// repositories return ErrReadOnly.
	Store(path string, data []byte) error
	// Stat returns metadata only, charging latency but not
	// size-dependent transfer cost. This is what mtime-polling
	// verifiers call on every cache hit.
	Stat(path string) (Meta, error)
}

// record is one stored document in the in-memory repositories.
type record struct {
	data    []byte
	modTime time.Time
	version int64
}

// base carries the machinery shared by the simulated repositories.
type base struct {
	name string
	clk  clock.Clock
	path *simnet.Path
}

// charge advances the clock by the transfer cost of n bytes and
// returns the charged duration.
func (b *base) charge(n int64) time.Duration {
	d := b.path.Cost(n)
	b.clk.Sleep(d)
	return d
}

// chargeStat advances the clock by the latency-only cost of a
// metadata round trip.
func (b *base) chargeStat() time.Duration { return b.charge(0) }

func (b *base) Name() string { return b.name }

func notFound(repo, path string) error {
	return fmt.Errorf("%w: %s:%s", ErrNotFound, repo, path)
}
