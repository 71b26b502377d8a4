package sim

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"placeless/internal/cluster"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/stream"
)

// step executes the i-th pseudo-random workload operation. Weights
// skew toward reads (the paper's workload), with a steady trickle of
// writes, property churn, time advancement, and — when the remote
// stack is up — wire faults and recovery.
func (w *World) step(i int) error {
	w.opIdx = i
	doc := w.model.order[w.rng.Intn(len(w.model.order))]
	d := w.model.docs[doc]
	user := d.users[w.rng.Intn(len(d.users))]
	r := w.rng.Float64()
	switch {
	case r < 0.26:
		return w.doLocalRead(doc, user)
	case r < 0.38:
		if w.clusterOn && w.rng.Intn(2) == 1 {
			return w.doClusterRead(doc, user)
		}
		if w.remoteOn {
			return w.doRemoteRead(doc, user)
		}
		return w.doLocalRead(doc, user)
	case r < 0.50:
		return w.doWrite(doc)
	case r < 0.54: // the retired flush op's share, kept so every seed's schedule stays put
		return w.doLocalRead(doc, user)
	case r < 0.58:
		return w.doAttach(doc, user)
	case r < 0.61:
		return w.doDetach()
	case r < 0.64:
		return w.doReplace()
	case r < 0.67:
		return w.doReorder()
	case r < 0.70:
		return w.doExternalChange(doc)
	case r < 0.74:
		if !w.remoteOn {
			return w.doUpdateDirect(doc)
		}
		if w.clusterOn {
			return w.doClusterMembership()
		}
		return w.doLocalRead(doc, user)
	case r < 0.84:
		return w.doAdvance(time.Duration(1+w.rng.Intn(40)) * time.Millisecond)
	case r < 0.87:
		if w.remoteOn {
			return w.doFaults()
		}
		return w.doAdvance(time.Duration(1+w.rng.Intn(10)) * time.Millisecond)
	case r < 0.90:
		if w.clusterOn && w.rng.Intn(2) == 1 {
			return w.doClusterKillNode()
		}
		if w.remoteOn {
			return w.doBreakConns()
		}
		if w.durable {
			// The local-only analogue of a connection kill: the cache
			// process dies and a successor recovers from the disk tier.
			return w.doRestart()
		}
		return w.doLocalRead(doc, user)
	case r < 0.92:
		if w.remoteOn {
			return w.doPartition()
		}
		return w.doLocalRead(doc, user)
	case r < 0.96:
		if w.remoteOn {
			return w.doHeal()
		}
		return w.doAdvance(time.Duration(1+w.rng.Intn(10)) * time.Millisecond)
	default:
		if w.remoteOn {
			return w.doSettle()
		}
		return w.doAdvance(time.Duration(1+w.rng.Intn(10)) * time.Millisecond)
	}
}

// doLocalRead reads through the in-process core cache and checks the
// result against the interval oracle: the bytes must match a model
// state live at some instant of the read.
func (w *World) doLocalRead(doc, user string) error {
	t0 := w.clk.Now()
	w.tr.add(w.opIdx, t0, "local-read", doc+"/"+user)
	var data []byte
	err := w.guarded("local-read", func() error {
		var e error
		data, e = w.cache.Read(doc, user)
		return e
	})
	if err != nil {
		return fmt.Errorf("local read %s/%s failed: %w", doc, user, err)
	}
	w.endOp()
	if cerr := w.checkLocal(doc, user, data, t0); cerr != nil {
		return cerr
	}
	w.tr.note("→ %q", truncate(data))
	return nil
}

// doRemoteRead reads through the remote cache over the faulty wire.
// Degraded-mode refusals and wire timeouts are legal availability
// outcomes; returned bytes are held to the causal staleness bound.
func (w *World) doRemoteRead(doc, user string) error {
	t0 := w.clk.Now()
	w.tr.add(w.opIdx, t0, "remote-read", doc+"/"+user)
	var data []byte
	err := w.guarded("remote-read", func() error {
		var e error
		data, e = w.rc.Read(doc, user)
		return e
	})
	w.endOp()
	if err != nil {
		if errors.Is(err, remote.ErrDegraded) {
			w.tr.note("→ unavailable (%v)", err)
			return nil
		}
		return fmt.Errorf("remote read %s/%s failed: %w", doc, user, err)
	}
	if cerr := w.checkRemote(doc, user, data); cerr != nil {
		return cerr
	}
	w.tr.note("→ %q", truncate(data))
	return nil
}

// doClusterRead reads through the consistent-hash router, which picks
// the key's owner set and fails over past degraded replicas. The bytes
// are held to the causal staleness bound of the node that actually
// served them — each replica's cache advances independently, so the
// oracle tracks a bound per node (DESIGN.md §13).
func (w *World) doClusterRead(doc, user string) error {
	t0 := w.clk.Now()
	w.tr.add(w.opIdx, t0, "cluster-read", doc+"/"+user)
	var data []byte
	var via string
	err := w.guarded("cluster-read", func() error {
		var e error
		data, via, e = w.cl.ReadVia(doc, user)
		return e
	})
	w.endOp()
	if err != nil {
		if errors.Is(err, remote.ErrDegraded) ||
			errors.Is(err, remote.ErrClosed) ||
			errors.Is(err, cluster.ErrNoNodes) {
			w.tr.note("→ unavailable (%v)", err)
			return nil
		}
		return fmt.Errorf("cluster read %s/%s failed: %w", doc, user, err)
	}
	if cerr := w.checkRemoteAt(via, doc, user, data); cerr != nil {
		return cerr
	}
	w.tr.note("→ %q via %s", truncate(data), via)
	return nil
}

// doClusterKillNode severs one node's connections — the single-node
// analogue of doBreakConns. The node's client reconnects on its own;
// until then reads fail over to its replicas.
func (w *World) doClusterKillNode() error {
	var live []*clusterNode
	for _, n := range w.clNodes {
		if !n.closed {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return w.doAdvance(time.Millisecond)
	}
	n := live[w.rng.Intn(len(live))]
	w.tr.add(w.opIdx, w.clk.Now(), "cluster-kill", n.name)
	w.net.BreakConnsTo("srv-" + n.name)
	return nil
}

// doClusterMembership joins a fresh node to the ring or retires one —
// the rebalance paths. The ring keeps at least one member and at most
// five; a leave closes the departed node's cache and connection (its
// oracle bounds remain: they only constrain reads it already served).
func (w *World) doClusterMembership() error {
	var live []*clusterNode
	for _, n := range w.clNodes {
		if !n.closed {
			live = append(live, n)
		}
	}
	join := len(live) <= 1 || (len(live) < 5 && w.rng.Intn(2) == 1)
	if join {
		w.tr.add(w.opIdx, w.clk.Now(), "cluster-join", fmt.Sprintf("n%d", w.clSeq))
		err := w.guarded("cluster-join", func() error { return w.addClusterNode() })
		if err != nil {
			// The wire may be down or faulty: a node that cannot reach
			// the origin never finishes booting — a legal non-event.
			w.tr.note("aborted (%v)", err)
			return nil
		}
		w.endOp()
		return nil
	}
	n := live[w.rng.Intn(len(live))]
	w.tr.add(w.opIdx, w.clk.Now(), "cluster-leave", n.name)
	w.cl.RemoveNode(n.name)
	n.rc.Close()
	_ = n.client.Close()
	n.closed = true
	w.endOp()
	return nil
}

// doWrite issues the document's designated writer (its owner) a new
// content version through the core cache, which stores it at once.
func (w *World) doWrite(doc string) error {
	d := w.model.docs[doc]
	user := d.users[0]
	w.writeSeq++
	data := []byte(fmt.Sprintf("w%05d:%s:%08x", w.writeSeq, doc, w.rng.Int63()))
	t0 := w.clk.Now()
	w.tr.add(w.opIdx, t0, "write", fmt.Sprintf("%s/%s %q", doc, user, data))
	err := w.guarded("write", func() error { return w.cache.Write(doc, user, data) })
	if err != nil {
		return fmt.Errorf("write %s/%s failed: %w", doc, user, err)
	}
	w.clk.Advance(opEpsilon)
	w.model.applyWrite(doc, data, t0, w.clk.Now())
	return nil
}

// doAdvance moves virtual time forward, firing any due timers
// (delayed message deliveries among them).
func (w *World) doAdvance(d time.Duration) error {
	w.tr.add(w.opIdx, w.clk.Now(), "advance", d.String())
	return w.guarded("advance", func() error { w.clk.Advance(d); return nil })
}

// attachProp builds a fresh transformer from the catalog, attaches it
// at the given level, and mirrors it into the model. user is ignored
// for universal attachments.
func (w *World) attachProp(doc, user string, level docspace.Level) error {
	name := fmt.Sprintf("p%03d", w.propSeq)
	w.propSeq++
	kind := w.rng.Intn(3)
	fn := transformFn(kind, name, 1)
	vote := property.Unrestricted
	switch r := w.rng.Float64(); {
	case r > 0.95:
		vote = property.Uncacheable
	case r > 0.80:
		vote = property.CacheWithEvents
	}
	// A personal tagger carries a memo contract, as a watermark does: it
	// appends to the universal output, so the origin ships its views as
	// head + tail and the sidecar's nodes build them on one shared head.
	// It takes no draw, so every seed keeps its schedule.
	memo := ""
	if level == docspace.Universal && w.rng.Intn(10) < 7 || level == docspace.Personal && kind == 0 {
		memo = fmt.Sprintf("%s-k%d", name, kind)
	}
	p := &property.Transformer{
		Base:          property.Base{PropName: name},
		ReadTransform: stream.Transform(fn),
		ExecCost:      time.Duration(w.rng.Intn(300)) * time.Microsecond,
		CacheVote:     vote,
		Version:       1,
		MemoID:        memo,
	}
	userArg, affected := "", w.model.docs[doc].users
	if level == docspace.Personal {
		userArg, affected = user, []string{user}
	}
	if err := w.space.Attach(doc, userArg, level, p); err != nil {
		return fmt.Errorf("attach %s at %s/%s: %w", name, doc, userArg, err)
	}
	cp := chainProp{name: name, version: 1, fn: fn}
	cp.kind, cp.memo = kind, memo
	d := w.model.docs[doc]
	if level == docspace.Universal {
		d.universal = append(d.universal, cp)
	} else {
		d.personal[user] = append(d.personal[user], cp)
	}
	now := w.clk.Now()
	w.model.syncOpens(doc, affected, now, now)
	return nil
}

func (w *World) doAttach(doc, user string) error {
	level := docspace.Universal
	if w.rng.Intn(2) == 1 {
		level = docspace.Personal
	}
	w.tr.add(w.opIdx, w.clk.Now(), "attach", fmt.Sprintf("%s/%s %v", doc, user, level))
	if err := w.attachProp(doc, user, level); err != nil {
		return err
	}
	w.tr.note("name=p%03d", w.propSeq-1)
	w.endOp()
	return nil
}

// chainSite addresses one mutable transform chain in the model.
type chainSite struct {
	doc   string
	user  string // "" for universal
	level docspace.Level
}

// chainAt returns the chain at a site.
func (w *World) chainAt(s chainSite) []chainProp {
	d := w.model.docs[s.doc]
	if s.level == docspace.Universal {
		return d.universal
	}
	return d.personal[s.user]
}

// setChainAt replaces the chain at a site.
func (w *World) setChainAt(s chainSite, c []chainProp) {
	d := w.model.docs[s.doc]
	if s.level == docspace.Universal {
		d.universal = c
	} else {
		d.personal[s.user] = c
	}
}

// sitesWithProps lists every chain currently holding at least min
// properties, in deterministic order.
func (w *World) sitesWithProps(min int) []chainSite {
	var out []chainSite
	for _, id := range w.model.order {
		d := w.model.docs[id]
		if len(d.universal) >= min {
			out = append(out, chainSite{doc: id, level: docspace.Universal})
		}
		for _, u := range d.users {
			if len(d.personal[u]) >= min {
				out = append(out, chainSite{doc: id, user: u, level: docspace.Personal})
			}
		}
	}
	return out
}

func (w *World) affectedUsers(s chainSite) []string {
	if s.level == docspace.Universal {
		return w.model.docs[s.doc].users
	}
	return []string{s.user}
}

func (w *World) doDetach() error {
	sites := w.sitesWithProps(1)
	if len(sites) == 0 {
		return w.doAdvance(time.Millisecond)
	}
	s := sites[w.rng.Intn(len(sites))]
	chain := w.chainAt(s)
	i := w.rng.Intn(len(chain))
	name := chain[i].name
	w.tr.add(w.opIdx, w.clk.Now(), "detach", fmt.Sprintf("%s/%s %v %s", s.doc, s.user, s.level, name))
	if err := w.space.Detach(s.doc, s.user, s.level, name); err != nil {
		return fmt.Errorf("detach %s: %w", name, err)
	}
	w.setChainAt(s, append(chain[:i:i], chain[i+1:]...))
	now := w.clk.Now()
	w.model.syncOpens(s.doc, w.affectedUsers(s), now, now)
	w.endOp()
	return nil
}

func (w *World) doReplace() error {
	sites := w.sitesWithProps(1)
	if len(sites) == 0 {
		return w.doAdvance(time.Millisecond)
	}
	s := sites[w.rng.Intn(len(sites))]
	chain := w.chainAt(s)
	i := w.rng.Intn(len(chain))
	old := chain[i]
	ver := old.version + 1
	fn := transformFn(old.kind, old.name, ver)
	w.tr.add(w.opIdx, w.clk.Now(), "replace", fmt.Sprintf("%s/%s %v %s → v%d", s.doc, s.user, s.level, old.name, ver))
	p := &property.Transformer{
		Base:          property.Base{PropName: old.name},
		ReadTransform: stream.Transform(fn),
		ExecCost:      time.Duration(w.rng.Intn(300)) * time.Microsecond,
		Version:       ver,
		MemoID:        old.memo,
	}
	if err := w.space.Replace(s.doc, s.user, s.level, old.name, p); err != nil {
		return fmt.Errorf("replace %s: %w", old.name, err)
	}
	chain[i] = chainProp{name: old.name, version: ver, fn: fn, kind: old.kind, memo: old.memo}
	now := w.clk.Now()
	w.model.syncOpens(s.doc, w.affectedUsers(s), now, now)
	w.endOp()
	return nil
}

func (w *World) doReorder() error {
	sites := w.sitesWithProps(2)
	if len(sites) == 0 {
		return w.doAdvance(time.Millisecond)
	}
	s := sites[w.rng.Intn(len(sites))]
	chain := w.chainAt(s)
	perm := w.rng.Perm(len(chain))
	names := make([]string, len(chain))
	next := make([]chainProp, len(chain))
	for i, j := range perm {
		names[i] = chain[j].name
		next[i] = chain[j]
	}
	w.tr.add(w.opIdx, w.clk.Now(), "reorder", fmt.Sprintf("%s/%s %v %v", s.doc, s.user, s.level, names))
	if err := w.space.Reorder(s.doc, s.user, s.level, names); err != nil {
		return fmt.Errorf("reorder %s: %w", s.doc, err)
	}
	w.setChainAt(s, next)
	now := w.clk.Now()
	w.model.syncOpens(s.doc, w.affectedUsers(s), now, now)
	w.endOp()
	return nil
}

// doExternalChange signals invalidation cause 4 (external information
// changed). None of the catalog transforms embed external state, so
// content is unaffected — the op exercises the invalidation machinery
// for free.
func (w *World) doExternalChange(doc string) error {
	w.tr.add(w.opIdx, w.clk.Now(), "external", doc)
	if err := w.space.SignalExternalChange(doc, fmt.Sprintf("sim-%d", w.opIdx)); err != nil {
		return fmt.Errorf("external change %s: %w", doc, err)
	}
	w.endOp()
	return nil
}

// doUpdateDirect rewrites the document's backing bits behind the
// system's back (invalidation cause 1, uncontrolled): only verifiers
// catch it, so it runs only in local-only seeds — a remote cache has
// no verifier and would be legitimately, unboundedly stale.
func (w *World) doUpdateDirect(doc string) error {
	w.writeSeq++
	data := []byte(fmt.Sprintf("ob%05d:%s:%08x", w.writeSeq, doc, w.rng.Int63()))
	t0 := w.clk.Now()
	w.tr.add(w.opIdx, t0, "update-direct", fmt.Sprintf("%s %q", doc, data))
	w.src.UpdateDirect("/"+doc, data)
	w.clk.Advance(opEpsilon)
	w.model.applyWrite(doc, data, t0, w.clk.Now())
	return nil
}

// doRestart closes the cache and boots a successor over the recovered
// disk tier. The cache buffers nothing, so a crash and a graceful
// shutdown are one teardown.
func (w *World) doRestart() error {
	// This draw once chose between a crash and a graceful close; it
	// stays, discarded, so a seed keeps its schedule past a restart.
	_ = w.rng.Intn(2)
	w.tr.add(w.opIdx, w.clk.Now(), "restart", "")
	if err := w.guarded("restart", func() error { return w.restartDurable() }); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	w.endOp()
	return nil
}

// drawFaults arms a fresh random fault mix on the wire.
func (w *World) drawFaults() {
	drop := w.rng.Float64() * 0.06
	reorder := w.rng.Float64() * 0.15
	delay := w.rng.Float64() * 0.30
	maxDelay := time.Duration(1+w.rng.Intn(25)) * time.Millisecond
	w.net.SetFaults(drop, reorder, delay, maxDelay)
	w.tr.note("drop=%.3f reorder=%.3f delay=%.3f maxDelay=%v", drop, reorder, delay, maxDelay)
}

func (w *World) doFaults() error {
	w.tr.add(w.opIdx, w.clk.Now(), "faults", "")
	if w.rng.Intn(3) == 0 {
		w.net.SetFaults(0, 0, 0, 0)
		w.tr.note("cleared")
	} else {
		w.drawFaults()
	}
	return nil
}

func (w *World) doBreakConns() error {
	w.tr.add(w.opIdx, w.clk.Now(), "break-conns", "")
	w.net.BreakConns()
	return nil
}

func (w *World) doPartition() error {
	w.tr.add(w.opIdx, w.clk.Now(), "partition", "")
	w.net.Partition()
	return nil
}

func (w *World) doHeal() error {
	w.tr.add(w.opIdx, w.clk.Now(), "heal", "")
	w.net.Heal()
	return nil
}

func (w *World) doSettle() error {
	w.tr.add(w.opIdx, w.clk.Now(), "settle", "")
	if err := w.settle(); err != nil {
		return err
	}
	w.tr.note("quiescent")
	return nil
}

// transformFn returns the pure byte transform for a catalog kind. The
// same function backs both the attached property and the model, so the
// oracle's expectation is the transform's definition, not a reimplementation.
func transformFn(kind int, name string, version int) func([]byte) []byte {
	switch kind {
	case 0: // tagger: order-sensitive suffix, version-visible
		tag := []byte(fmt.Sprintf("|%s.v%d", name, version))
		return func(b []byte) []byte { return append(append([]byte{}, b...), tag...) }
	case 1: // uppercase: idempotent, version-invariant
		return func(b []byte) []byte { return bytes.ToUpper(b) }
	default: // reverse: makes chain order matter
		return func(b []byte) []byte {
			out := make([]byte, len(b))
			for i, c := range b {
				out[len(b)-1-i] = c
			}
			return out
		}
	}
}
