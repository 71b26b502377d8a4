package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is an ordered set of metric families rendered in the
// Prometheus text exposition format (version 0.0.4). Families are
// registered once at wiring time — duplicate names panic, because a
// silent rename or collision is exactly what the golden metric-name
// check exists to catch — and scraped concurrently thereafter.
//
// Counters and gauges are registered as read functions rather than
// owned values, so existing atomic counters (the cache's
// statsCounters) export without migrating their storage: the hot path
// keeps its lock-free increments and the registry reads the same
// atomics at scrape time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family and its renderer.
type family struct {
	name, help, typ string
	render          func(w *bufio.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// add registers a family, panicking on duplicates.
func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[f.name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	r.families[f.name] = f
}

// Counter registers a cumulative counter read from fn at scrape time.
func (r *Registry) Counter(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "counter", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// Gauge registers a point-in-time value read from fn at scrape time.
func (r *Registry) Gauge(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "gauge", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// CounterVec registers a label-partitioned counter family and returns
// the vector. The values given here pre-exist with count 0 so a scrape
// shows the full label space before traffic arrives; unknown values
// are added on first use.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{label: label, vals: make(map[string]*atomic.Int64)}
	for _, val := range values {
		v.vals[val] = new(atomic.Int64)
	}
	r.add(&family{name: name, help: help, typ: "counter", render: func(w *bufio.Writer) {
		for _, val := range v.labels() {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, val, v.Value(val))
		}
	}})
	return v
}

// Histogram registers a latency histogram family and returns it.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&family{name: name, help: help, typ: "histogram", render: func(w *bufio.Writer) {
		h.write(w, name, "")
	}})
	return h
}

// HistogramVec registers a label-partitioned histogram family with a
// fixed value set (per-stage latency is the intended use: the stage
// vocabulary is closed).
func (r *Registry) HistogramVec(name, help, label string, values ...string) *HistogramVec {
	v := &HistogramVec{byLabel: make(map[string]*Histogram, len(values)), order: append([]string(nil), values...)}
	for _, val := range values {
		v.byLabel[val] = &Histogram{}
	}
	r.add(&family{name: name, help: help, typ: "histogram", render: func(w *bufio.Writer) {
		for _, val := range v.order {
			v.byLabel[val].write(w, name, fmt.Sprintf("%s=%q", label, val))
		}
	}})
	return v
}

// Names returns the registered family names in sorted order — the
// contract surface the golden metric-name list pins.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteText renders every family in the Prometheus text exposition
// format, sorted by family name so output is stable for golden tests
// and diff-based monitoring.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ordered := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		ordered = append(ordered, f)
	}
	r.mu.Unlock()
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range ordered {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.render(bw)
	}
	return bw.Flush()
}

// CounterVec is a counter family partitioned by one label. The fast
// path (a pre-registered label value) is a read-locked map lookup and
// a lock-free atomic add.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	vals  map[string]*atomic.Int64
}

// Inc adds one to the counter for value, creating it on first use.
func (v *CounterVec) Inc(value string) { v.counter(value).Add(1) }

// Add adds delta to the counter for value, creating it on first use.
func (v *CounterVec) Add(value string, delta int64) { v.counter(value).Add(delta) }

// Value returns the current count for value (0 if never touched).
func (v *CounterVec) Value(value string) int64 {
	v.mu.RLock()
	c := v.vals[value]
	v.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Values returns a snapshot of every label value's count.
func (v *CounterVec) Values() map[string]int64 {
	out := make(map[string]int64)
	for _, val := range v.labels() {
		out[val] = v.Value(val)
	}
	return out
}

// counter returns the counter for value, creating it if needed.
func (v *CounterVec) counter(value string) *atomic.Int64 {
	v.mu.RLock()
	c := v.vals[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.vals[value]; c == nil {
		c = new(atomic.Int64)
		v.vals[value] = c
	}
	return c
}

// labels returns the label values in sorted order.
func (v *CounterVec) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.vals))
	for val := range v.vals {
		out = append(out, val)
	}
	sort.Strings(out)
	return out
}

// HistogramVec is a histogram family partitioned by one label with a
// fixed value set; lookups are lock-free map reads (the map is
// immutable after construction).
type HistogramVec struct {
	byLabel map[string]*Histogram
	order   []string
}

// Observe records d under value; unknown values are dropped (the
// stage vocabulary is closed, so a miss is a programming error the
// tests catch, not a runtime condition worth a lock).
func (v *HistogramVec) Observe(value string, d int64) {
	if h := v.byLabel[value]; h != nil {
		h.ObserveNanos(d)
	}
}

// With returns the histogram for value, or nil for unknown values.
func (v *HistogramVec) With(value string) *Histogram { return v.byLabel[value] }

// formatSeconds renders a nanosecond count as seconds in the shortest
// float form, the unit Prometheus conventions require.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
