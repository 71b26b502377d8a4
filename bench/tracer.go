package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one, 0 for the
// rung's own call.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int    `json:"op"`
	Rung    string `json:"rung"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer holds spans in memory and writes them out when the run ends.
// A nil tracer records nothing, which is how untraced slices run.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span

	// The in-process replays issue one op at a time, so the op in
	// flight and its root span are single values. Wrappers at the
	// interface seams read them from whichever goroutine the stack runs
	// them on.
	curOp, curRoot atomic.Int64
	curRung        atomic.Value // string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a finished top-level span of a live op.
func (t *tracer) root(rung, name string, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s0 := start.Sub(t.epoch).Nanoseconds()
	t.add(span{ID: t.next.Add(1), Op: op, Rung: rung, Name: name, StartNS: s0, EndNS: s0 + d.Nanoseconds()})
}

// openSpan is the root span of an in-process op between begin and
// end.
type openSpan struct {
	span
	start time.Time
}

// begin opens the root span of an in-process op and makes it the
// parent of whatever the seams record until end.
func (t *tracer) begin(rung, name string, op int) openSpan {
	s := openSpan{span{ID: t.next.Add(1), Op: op, Rung: rung, Name: name}, time.Now()}
	t.curRung.Store(rung)
	t.curOp.Store(int64(op))
	t.curRoot.Store(s.ID)
	return s
}

// end closes s, records it and returns how long it took.
func (t *tracer) end(s openSpan) time.Duration {
	d := time.Since(s.start)
	t.curRoot.Store(0)
	s.StartNS = s.start.Sub(t.epoch).Nanoseconds()
	s.EndNS = s.StartNS + d.Nanoseconds()
	t.add(s.span)
	return d
}

// child records a call made at an interface seam while an in-process
// op is in flight. Calls outside any op (population, warm-up) are not
// recorded.
func (t *tracer) child(name string, start time.Time) {
	root := t.curRoot.Load()
	if root == 0 {
		return
	}
	rung, _ := t.curRung.Load().(string)
	s0 := start.Sub(t.epoch).Nanoseconds()
	t.add(span{ID: t.next.Add(1), Parent: root, Op: int(t.curOp.Load()), Rung: rung, Name: name,
		StartNS: s0, EndNS: s0 + time.Since(start).Nanoseconds()})
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
