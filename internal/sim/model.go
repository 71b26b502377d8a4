// Package sim is a deterministic whole-stack simulation harness for
// the Placeless caching system. One seeded run builds the full stack —
// document space, core cache (memoization on or off), TCP server, resilient client, and remote cache — on a virtual
// clock and a fault-injecting in-process network, drives it with a
// pseudo-random workload schedule, and checks every simulated read
// against a sequential reference model of
//
//	transform-chain(user)(bits)
//
// A read is legal only if the bytes it returned correspond to a model
// state that was legal at some instant of the read; stale reads, lost
// writes, and deadlocks (detected as virtual-clock stalls) fail the
// run and dump a replayable event trace keyed by the seed.
package sim

import (
	"bytes"
	"fmt"
	"sort"
	"time"
)

// farFuture stands in for "still current" when comparing intervals.
var farFuture = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)

// version is one (doc, user) view the model has seen. A zero `to`
// means the version is still open: the current one. Each key has at
// most one open version, the last in its history, because every write
// goes through and so the repository holds exactly one source.
type version struct {
	seq  uint64
	data []byte
	from time.Time
	to   time.Time
}

func (v *version) open() bool { return v.to.IsZero() }

// chainProp mirrors one attached read-path transformer: its docspace
// name, release version, and the pure byte transform it applies.
type chainProp struct {
	name    string
	version int
	fn      func([]byte) []byte
	// kind and memo carry the workload generator's catalog bookkeeping
	// so Replace can re-derive the same transform family at the next
	// version.
	kind int
	memo string
}

// modelDoc is the reference state of one document.
type modelDoc struct {
	id    string
	users []string // users[0] is the owner and the only writer

	// source is the byte string the backing repository holds.
	source []byte

	universal []chainProp
	personal  map[string][]chainProp
}

// model is the sequential reference implementation plus the legality
// oracle.
type model struct {
	seq     uint64
	docs    map[string]*modelDoc
	order   []string
	history map[string][]version // key(doc,user) → versions
	// minLegal holds each remote node's causal lower bound per key
	// (nkey(node, mkey(doc,user)) → lowest legal seq). The bound is per
	// node: each replica's cache advances independently, so after a
	// failover a different replica may legally serve bytes older than
	// what the previous one observed — a single global ratchet would
	// falsely flag that legal read. Cross-replica read monotonicity is
	// explicitly NOT promised (DESIGN.md §13); within one node it is.
	minLegal map[string]uint64
	// remoteNodes is the registered node set; settleKey tightens every
	// node's bound. The base (non-cluster) remote cache is node "rc".
	remoteNodes map[string]struct{}
}

func mkey(doc, user string) string { return doc + "\x00" + user }

// nkey scopes a model key to one remote node's causal bound.
func nkey(node, k string) string { return node + "\x01" + k }

func newModel() *model {
	return &model{
		docs:        make(map[string]*modelDoc),
		history:     make(map[string][]version),
		minLegal:    make(map[string]uint64),
		remoteNodes: map[string]struct{}{"rc": {}},
	}
}

// addRemoteNode registers a remote node so settleKey tightens its
// causal bounds too. A node keeps its bounds (and registration) for
// the whole run even if it later leaves the ring: its cache object
// survives until the leave, and bounds only ever constrain reads that
// actually went through it.
func (m *model) addRemoteNode(node string) {
	m.remoteNodes[node] = struct{}{}
}

// addDoc registers a document with its initial repository content and
// user set, opening the first version of every user's view at `at`.
func (m *model) addDoc(id string, users []string, content []byte, at time.Time) {
	d := &modelDoc{
		id:       id,
		users:    append([]string{}, users...),
		source:   append([]byte{}, content...),
		personal: make(map[string][]chainProp),
	}
	m.docs[id] = d
	m.order = append(m.order, id)
	m.syncOpens(id, users, at, at)
}

// render applies the user's transform chain (universal prefix, then
// personal suffix — the read-path order) to a source.
func (d *modelDoc) render(src []byte, user string) []byte {
	out := append([]byte{}, src...)
	for _, p := range d.universal {
		out = p.fn(out)
	}
	for _, p := range d.personal[user] {
		out = p.fn(out)
	}
	return out
}

// syncOpens recomputes the current view of the given users of doc: the
// render of its source. An open version whose bytes differ is closed
// at hi (it may have been legal up to that instant) and the new render
// opens at lo. lo ≤ hi bound when the transition really happened.
func (m *model) syncOpens(doc string, users []string, lo, hi time.Time) {
	d := m.docs[doc]
	for _, user := range users {
		k := mkey(doc, user)
		data := d.render(d.source, user)
		if v := m.open(k); v != nil {
			if bytes.Equal(v.data, data) {
				continue
			}
			v.to = hi
		}
		m.seq++
		m.history[k] = append(m.history[k], version{seq: m.seq, data: data, from: lo})
	}
}

// applyWrite records a store: the repository now holds exactly data.
func (m *model) applyWrite(doc string, data []byte, lo, hi time.Time) {
	d := m.docs[doc]
	d.source = append([]byte{}, data...)
	m.syncOpens(doc, d.users, lo, hi)
}

// legalLocal reports whether a strongly-consistent (in-process) read
// of (doc, user) spanning [t0, t1] of virtual time may legally have
// returned got: some version with matching bytes must have been live
// during the read. want describes the expected state for diagnostics.
func (m *model) legalLocal(doc, user string, got []byte, t0, t1 time.Time) (bool, string) {
	k := mkey(doc, user)
	for i := range m.history[k] {
		v := &m.history[k][i]
		to := v.to
		if to.IsZero() {
			to = farFuture
		}
		if !v.from.After(t1) && !to.Before(t0) && bytes.Equal(v.data, got) {
			return true, ""
		}
	}
	return false, m.describe(k, t0, t1)
}

// legalRemote reports whether a push-invalidated read through the base
// remote cache (node "rc") may legally have returned got.
func (m *model) legalRemote(doc, user string, got []byte) (bool, string) {
	return m.legalRemoteAt("rc", doc, user, got)
}

// legalRemoteAt reports whether a push-invalidated remote read served
// by node may legally have returned got. Remote staleness is bounded
// by causality, not by intervals: a node's cache may serve any version
// at least as new as the newest one that node has provably observed
// (its minLegal bound), which advances monotonically — per key and per
// node, a remote reader never travels back in time. On a match the
// node's bound tightens to the version observed.
func (m *model) legalRemoteAt(node, doc, user string, got []byte) (bool, string) {
	k := mkey(doc, user)
	nk := nkey(node, k)
	min := m.minLegal[nk]
	for i := range m.history[k] {
		v := &m.history[k][i]
		if v.seq < min {
			continue
		}
		if bytes.Equal(v.data, got) {
			m.minLegal[nk] = v.seq
			return true, ""
		}
	}
	return false, m.describe(k, time.Time{}, time.Time{})
}

// open returns the key's open version, or nil before its first.
func (m *model) open(k string) *version {
	h := m.history[k]
	if n := len(h); n > 0 && h[n-1].open() {
		return &h[n-1]
	}
	return nil
}

// settleKey records that every registered remote node has provably
// caught up on this key (pushes drained, connections up, suspect
// windows closed): every version older than the current one becomes
// illegal on every node.
func (m *model) settleKey(doc, user string) {
	k := mkey(doc, user)
	v := m.open(k)
	if v == nil {
		return
	}
	for node := range m.remoteNodes {
		nk := nkey(node, k)
		if v.seq > m.minLegal[nk] {
			m.minLegal[nk] = v.seq
		}
	}
}

// current returns the bytes of the key's open version.
func (m *model) current(doc, user string) []byte {
	if v := m.open(mkey(doc, user)); v != nil {
		return v.data
	}
	return nil
}

// describe summarizes a key's version history for failure reports.
func (m *model) describe(k string, t0, t1 time.Time) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "history of %q", k)
	if !t0.IsZero() {
		fmt.Fprintf(&b, " (read interval [%s, %s])", t0.Format("15:04:05.000000"), t1.Format("15:04:05.000000"))
	}
	for i := range m.history[k] {
		v := &m.history[k][i]
		to := "open"
		if !v.open() {
			to = v.to.Format("15:04:05.000000")
		}
		fmt.Fprintf(&b, "\n    seq=%d from=%s to=%s data=%q",
			v.seq, v.from.Format("15:04:05.000000"), to, truncate(v.data))
	}
	nodes := make([]string, 0, len(m.remoteNodes))
	for n := range m.remoteNodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(&b, "\n    minLegalSeq[%s]=%d", n, m.minLegal[nkey(n, k)])
	}
	return b.String()
}

func truncate(b []byte) string {
	const max = 48
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + fmt.Sprintf("…(%d bytes)", len(b))
}
