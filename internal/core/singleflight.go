package core

import (
	"errors"

	"placeless/internal/stream"
)

// Single-flight coalescing, one protocol for every kind of key and both
// placements. When K goroutines miss on the same (document, user) key
// concurrently, exactly one — the leader — runs the read path
// (property chain execution, verifier install, notifier registration
// at the origin; one wire round trip at the sidecar); the other K−1
// block until the leader finishes and then share its result. Without
// coalescing, a hot key's misses would execute K identical property
// chains and fetch the source K times — the duplicate-fetch stampede
// dynamic-document caches must suppress. A prefix cut's (source
// signature, fingerprint) key is led the same way (intermediate.go),
// which is what lets K *different* users share one execution of a
// common chain prefix.

// ErrReadAborted is what the followers of a flight receive when its
// leader never published a result: property code is arbitrary and may
// panic, and the followers must not wait on it for ever. The panic
// itself continues in the leader's goroutine.
var ErrReadAborted = errors.New("core: the read this one was coalesced onto panicked")

// flight is one in-progress execution. The leader's function populates
// data/info/err and finish closes done; followers block on done and
// then read the result fields (safe without the shard lock:
// close(done) is the happens-before edge). For a cut, info carries
// only the Signature of data. err is born ErrReadAborted, so a leader
// that unwinds before publishing has published that.
type flight struct {
	done chan struct{}
	data stream.Body
	info EntryInfo
	err  error
}

// join looks k up and, when nothing is resident under it, joins k's
// flight or registers a new one, under one hold of the stripe lock: a
// resident record is returned as e (with no flight), so a record is
// never computed twice. Otherwise leader reports whether the caller
// registered f and must run it with lead; a follower waits on f.done.
func (t *Table) join(k string, ifAbsent bool) (e *Entry, f *flight, leader bool) {
	sh := t.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[k]; e != nil && ifAbsent {
		return e, nil, false
	}
	if f := sh.flights[k]; f != nil {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{}), err: ErrReadAborted}
	sh.flights[k] = f
	return nil, f, true
}

// lead runs fn as the leader of k's flight f and publishes its result.
// The completion is deferred, so it runs on a panic too: the flight is
// deregistered before done is closed, so a follower that wakes and
// misses again starts a fresh flight rather than joining a completed
// one.
func (t *Table) lead(k string, f *flight, fn func() (stream.Body, EntryInfo, error)) (stream.Body, EntryInfo, error) {
	defer func() {
		sh := t.shardFor(k)
		sh.mu.Lock()
		delete(sh.flights, k)
		sh.mu.Unlock()
		close(f.done)
	}()
	f.data, f.info, f.err = fn()
	return f.data, f.info, f.err
}

// Do runs fn for k unless a run for k is already in flight, in which
// case it waits for that run and returns its result with shared set.
// A shared result's bytes are the leader's, read-only. A key with a
// flight is pinned against eviction.
func (t *Table) Do(k string, fn func() (stream.Body, EntryInfo, error)) (data stream.Body, info EntryInfo, shared bool, err error) {
	_, f, leader := t.join(k, false)
	if !leader {
		<-f.done
		return f.data, f.info, true, f.err
	}
	data, info, err = t.lead(k, f, fn)
	return data, info, false, err
}
