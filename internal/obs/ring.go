package obs

import (
	"sync"
	"time"
)

// Read verdicts: the outcome classification every read trace and the
// placeless_reads_total counter share.
const (
	// VerdictHit is a read served from the cache, verifiers passed.
	VerdictHit = "hit"
	// VerdictMiss is a read that executed the full read path.
	VerdictMiss = "miss"
	// VerdictMemo is a miss whose universal stage was served from the
	// intermediate store (only the personal suffix executed).
	VerdictMemo = "memo"
	// VerdictCoalesced is a read that joined another goroutine's
	// in-flight miss and shared its result.
	VerdictCoalesced = "coalesced"
	// VerdictDisk is a miss served by promoting a durable entry from
	// the content-addressed disk tier (revalidated, no transform ran).
	VerdictDisk = "disk"
	// VerdictError is a read that failed.
	VerdictError = "error"
)

// Invalidation causes: the paper's four causes of cached-content
// invalidation (§3), plus the two miss attributions that are not
// notifier-driven. Counter labels and trace cause fields share this
// vocabulary.
const (
	// CauseContentWrite is cause 1: document content changed through
	// the Placeless system.
	CauseContentWrite = "content-write"
	// CauseProperty is cause 2: an active property was added, removed
	// or modified.
	CauseProperty = "property-change"
	// CauseReorder is cause 3: property execution order changed.
	CauseReorder = "reorder"
	// CauseExternal is cause 4: information outside Placeless control
	// changed.
	CauseExternal = "external"
	// CauseVerifier attributes a miss to a verifier rejecting the
	// previous entry on a hit (the pull-side of cause 4).
	CauseVerifier = "verifier-reject"
	// CauseCold attributes a miss to the entry never having been
	// cached (first access, eviction, or restart).
	CauseCold = "cold"
	// CauseDegraded attributes an invalidation (or refused read) to a
	// lost invalidation stream: entries cached under a connection
	// epoch that ended are flushed at reconnect because pushes may
	// have been missed while disconnected (the remote cache's
	// degraded-mode cause).
	CauseDegraded = "degraded"
)

// ReadTrace is one read's record: identity, outcome, attribution, and
// wall-clock stage timings. Durations marshal as nanoseconds.
// Stages that did not run on this read are zero and omitted.
type ReadTrace struct {
	// Time is when the read completed.
	Time time.Time `json:"time"`
	// Doc and User identify the entry read.
	Doc  string `json:"doc"`
	User string `json:"user"`
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// Coalesced marks a read that waited on another goroutine's
	// flight; its stage timings beyond FlightWait belong to the leader.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cause attributes a miss to what removed (or never admitted) the
	// previous entry: one of the Cause* constants. Empty on hits.
	Cause string `json:"cause,omitempty"`
	// Err is the error text for VerdictError reads.
	Err string `json:"err,omitempty"`
	// Total is the end-to-end read latency.
	Total time.Duration `json:"total_ns"`
	// Lookup is the sharded index lookup (stage shard_lookup).
	Lookup time.Duration `json:"lookup_ns,omitempty"`
	// FlightWait is time blocked on another goroutine's in-flight
	// read (stage flight_wait).
	FlightWait time.Duration `json:"flight_wait_ns,omitempty"`
	// Verify is hit-time verifier execution (stage verify).
	Verify time.Duration `json:"verify_ns,omitempty"`
	// DiskPromote is a miss's attempt to promote its durable entry
	// (stage disk_promote).
	DiskPromote time.Duration `json:"disk_promote_ns,omitempty"`
	// BitFetch is raw source retrieval on a miss (stage bit_fetch).
	BitFetch time.Duration `json:"bit_fetch_ns,omitempty"`
	// Universal is the universal property stage on a miss — memo
	// lookup on a memo verdict, full execution otherwise (stage
	// universal).
	Universal time.Duration `json:"universal_ns,omitempty"`
	// Personal is the personal property suffix on a miss (stage
	// personal).
	Personal time.Duration `json:"personal_ns,omitempty"`
	// Remote is the wire round trip for remote-cache misses (stage
	// remote_rtt).
	Remote time.Duration `json:"remote_ns,omitempty"`
	// PrefixCuts is the number of memoizable cut points the miss
	// offered the intermediate store (the N-segment prefix pipeline);
	// zero when no store was attached or the chain's head is not
	// memoizable.
	PrefixCuts int `json:"prefix_cuts,omitempty"`
	// PrefixDepth is the index of the deepest cached prefix served by
	// the longest-prefix probe, -1 when the probe found nothing.
	// Meaningful only when PrefixCuts > 0.
	PrefixDepth int `json:"prefix_depth,omitempty"`
}

// TraceRing is a fixed-capacity ring of the most recent read traces.
// A single mutex guards it: one uncontended lock and a struct copy
// per read keeps the budget well under the microsecond-scale read
// path, and snapshots (rare, operator-driven) pay the full copy.
type TraceRing struct {
	mu    sync.Mutex
	buf   []ReadTrace
	next  int
	total uint64
}

// NewTraceRing returns a ring keeping the last n traces (n <= 0
// selects the default of 1024).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 1024
	}
	return &TraceRing{buf: make([]ReadTrace, n)}
}

// Add records one trace, overwriting the oldest once full.
func (r *TraceRing) Add(t ReadTrace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total reports how many traces were ever recorded (including those
// already overwritten).
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to n of the most recent traces, newest first.
// n <= 0 returns everything retained.
func (r *TraceRing) Snapshot(n int) []ReadTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := int(r.total)
	if have > len(r.buf) {
		have = len(r.buf)
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]ReadTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
