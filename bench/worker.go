package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"placeless/internal/swarm"
	"placeless/internal/trace"
)

// worker is one closed-loop client: one keep-alive connection to the
// sidecar, issuing its next op when the previous one has completed.
// Ops are partitioned doc % clients, as swarm.RunOps does, so each
// key's ops stay in stream order and a worker shares no state.
type worker struct {
	e    *env
	conn httpConn
	buf  bytes.Buffer
	chk  *checker
	// unmarked holds the pairs whose watermark churn has detached;
	// set-up attaches it to every pair.
	unmarked map[pairKey]bool
}

func newWorker(e *env) *worker {
	return &worker{
		e:        e,
		conn:     httpConn{addr: e.sidecarHTTP},
		chk:      newChecker(),
		unmarked: make(map[pairKey]bool),
	}
}

// sliceResult is what one slice of ops did, merged over workers.
type sliceResult struct {
	wall              time.Duration
	reads, writes     int64
	churnOps          int64 // churn ops in the stream, no-ops included
	churnRPCs         int64 // attach/detach calls actually sent
	failed            int64
	http5xx           int64
	firstErr          error
	readLat, writeLat []time.Duration
}

func (r *sliceResult) ops() int64 { return r.reads + r.writes + r.churnOps }

func (r *sliceResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *sliceResult) merge(o *sliceResult) {
	r.reads += o.reads
	r.writes += o.writes
	r.churnOps += o.churnOps
	r.churnRPCs += o.churnRPCs
	r.failed += o.failed
	r.http5xx += o.http5xx
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.readLat = append(r.readLat, o.readLat...)
	r.writeLat = append(r.writeLat, o.writeLat...)
}

// runSlice executes ops on the workers and returns when all are done.
// opBase is the stream index of ops[0], which names each op's spans.
func (e *env) runSlice(ops []swarm.Op, opBase int, traced bool) *sliceResult {
	n := len(e.workers)
	parts := make([][]swarm.Op, n)
	ids := make([][]int, n)
	for i, op := range ops {
		w := op.Doc % n
		parts[w] = append(parts[w], op)
		ids[w] = append(ids[w], opBase+i)
	}
	results := make([]*sliceResult, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, wk := range e.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			results[i] = wk.run(parts[i], ids[i], traced)
		}(i, wk)
	}
	wg.Wait()
	total := &sliceResult{wall: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func (wk *worker) run(ops []swarm.Op, ids []int, traced bool) *sliceResult {
	r := &sliceResult{}
	var tr *tracer
	if traced {
		tr = wk.e.tracer
	}
	for i, op := range ops {
		switch {
		case op.Kind == trace.OpWrite:
			wk.write(r, tr, op, ids[i])
		case isChurn(op.Kind):
			wk.churn(r, tr, op, ids[i])
		default:
			wk.read(r, tr, op, ids[i])
		}
	}
	return r
}

func docPath(doc, user string) string { return "/doc/" + doc + "?user=" + user }

// get reads one view into wk.buf and returns the time to the last
// body byte.
func (wk *worker) get(doc, user string) (time.Duration, int, error) {
	start := time.Now()
	status, err := wk.conn.do(http.MethodGet, docPath(doc, user), nil, &wk.buf)
	return time.Since(start), status, err
}

func (wk *worker) read(r *sliceResult, tr *tracer, op swarm.Op, id int) {
	doc, user := swarm.DocID(op.Doc), swarm.UserName(op.User)
	t0 := time.Now()
	lat, status, err := wk.get(doc, user)
	tr.root("live", "http.get", id, t0, lat)
	r.reads++
	switch {
	case err != nil:
		r.fail(fmt.Errorf("GET %s/%s: %w", doc, user, err))
	case status != http.StatusOK:
		if status >= 500 {
			r.http5xx++
		}
		r.fail(fmt.Errorf("GET %s/%s: status %d: %.80s", doc, user, status, wk.buf.Bytes()))
	default:
		r.readLat = append(r.readLat, lat)
		if err := wk.chk.check(op.Doc, op.User, doc, user, wk.buf.Bytes()); err != nil {
			r.fail(err)
		}
	}
}

func (wk *worker) write(r *sliceResult, tr *tracer, op swarm.Op, id int) {
	doc := swarm.DocID(op.Doc)
	next := wk.chk.written[op.Doc] + 1
	body := stampContent(doc, next, wk.e.w.docBytes)
	r.writes++
	t0 := time.Now()
	status, err := wk.conn.do(http.MethodPut, docPath(doc, ownerName), body, &wk.buf)
	if err != nil {
		r.fail(fmt.Errorf("PUT %s: %w", doc, err))
		return
	}
	lat := time.Since(t0)
	tr.root("live", "http.put", id, t0, lat)
	if status != http.StatusNoContent {
		if status >= 500 {
			r.http5xx++
		}
		r.fail(fmt.Errorf("PUT %s: status %d", doc, status))
		return
	}
	wk.chk.written[op.Doc] = next
	r.writeLat = append(r.writeLat, lat)
}

// churn applies a personal-chain mutation to the pair's watermark,
// straight to the origin. The wire has no reorder op, so a reorder is
// a detach and an attach of the same property. An op the pair's state
// makes impossible is a counted no-op, so the mix stays an exact
// function of the stream.
func (wk *worker) churn(r *sliceResult, tr *tracer, op swarm.Op, id int) {
	doc, user := swarm.DocID(op.Doc), swarm.UserName(op.User)
	pk := pairKey{op.Doc, op.User}
	marked := !wk.unmarked[pk]
	r.churnOps++
	attach := func() error { return wk.e.ctl.Attach(doc, user, true, "watermark:"+user) }
	detach := func() error { return wk.e.ctl.Detach(doc, user, true, "watermark:"+user) }
	var calls []func() error
	switch {
	case op.Kind == trace.OpAttach && !marked:
		calls = append(calls, attach)
		delete(wk.unmarked, pk)
	case op.Kind == trace.OpDetach && marked:
		calls = append(calls, detach)
		wk.unmarked[pk] = true
	case op.Kind == trace.OpReorder && marked:
		calls = append(calls, detach, attach)
	}
	t0 := time.Now()
	for _, call := range calls {
		r.churnRPCs++
		if err := call(); err != nil {
			r.fail(fmt.Errorf("churn %s/%s: %w", doc, user, err))
			return
		}
	}
	if len(calls) > 0 {
		tr.root("live", "wire.churn", id, t0, time.Since(t0))
	}
}

// readUntilGood retries one read until the sidecar serves it, and
// returns how many attempts were refused first. It is how a restart
// cycle finds the moment the system is back.
func (wk *worker) readUntilGood(p pairKey) (refused int64, err error) {
	doc, user := swarm.DocID(p.doc), swarm.UserName(p.user)
	deadline := time.Now().Add(readyTimeout)
	for {
		_, status, err := wk.get(doc, user)
		if err == nil && status == http.StatusOK {
			return refused, wk.chk.check(p.doc, p.user, doc, user, wk.buf.Bytes())
		}
		refused++
		if time.Now().After(deadline) {
			return refused, fmt.Errorf("bench: %s/%s still refused %v after the restart (status %d, %v)", doc, user, readyTimeout, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}
