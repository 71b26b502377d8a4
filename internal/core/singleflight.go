package core

import "errors"

// Single-flight coalescing, one protocol for both kinds of key. When K
// goroutines miss on the same (document, user) key concurrently,
// exactly one — the leader — runs the full Placeless read path
// (property chain execution, verifier install, notifier registration);
// the other K−1 block until the leader finishes and then share its
// result. Without coalescing, a hot key's misses would execute K
// identical property chains and fetch the source K times — the
// duplicate-fetch stampede dynamic-document caches must suppress. A
// prefix cut's (source signature, fingerprint) key is led the same way
// (intermediate.go), which is what lets K *different* users share one
// execution of a common chain prefix.

// ErrReadAborted is what the followers of a flight receive when its
// leader never published a result: property code is arbitrary and may
// panic, and the followers must not wait on it for ever. The panic
// itself continues in the leader's goroutine.
var ErrReadAborted = errors.New("core: the read this one was coalesced onto panicked")

// flight is one in-progress execution. The leader populates
// data/info/err and finish closes done; followers block on done and
// then read the result fields (safe without the shard lock:
// close(done) is the happens-before edge). For a cut, info carries
// only the Signature of data. err is born ErrReadAborted, so a leader
// that unwinds before publishing has published that.
type flight struct {
	done chan struct{}
	data []byte
	info EntryInfo
	err  error
}

// joinOrLeadLocked looks up an in-flight execution for k; the caller
// holds sh.mu. If one exists it is returned with leader=false and the
// caller must wait on it after unlocking; otherwise a new flight is
// registered and returned with leader=true, and the caller must defer
// finish before it runs anything that can panic.
func joinOrLeadLocked(sh *shard, k string) (f *flight, leader bool) {
	if f := sh.flights[k]; f != nil {
		return f, false
	}
	f = &flight{done: make(chan struct{}), err: ErrReadAborted}
	sh.flights[k] = f
	return f, true
}

// joinOrLead is joinOrLeadLocked under the shard lock.
func joinOrLead(sh *shard, k string) (f *flight, leader bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return joinOrLeadLocked(sh, k)
}

// finish releases the followers with whatever the leader published.
// Leaders defer it, so it runs on a panic too. The flight is
// deregistered before done is closed, so a follower that wakes and
// misses again starts a fresh flight rather than joining a completed
// one.
func finish(sh *shard, k string, f *flight) {
	sh.mu.Lock()
	delete(sh.flights, k)
	sh.mu.Unlock()
	close(f.done)
}
