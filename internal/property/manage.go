package property

import (
	"fmt"
	"sync"
	"time"

	"placeless/internal/event"
	"placeless/internal/repo"
	"placeless/internal/stream"
)

// Versioning is the paper's universal versioning property: each time
// the document is opened for writing, it parks a copy of the existing
// content in an archive and attaches a static property to the base
// linking to that copy.
type Versioning struct {
	Base
	mu    sync.Mutex
	count int
}

// NewVersioning returns a versioning property.
func NewVersioning() *Versioning { return &Versioning{Base: Base{PropName: "versioning"}} }

// Events implements Active.
func (*Versioning) Events() []event.Kind { return []event.Kind{event.GetOutputStream} }

// OnEvent implements Active: on getOutputStream it snapshots the
// current content and archives it.
func (v *Versioning) OnEvent(ctx *EventContext, e event.Event) {
	if e.Kind != event.GetOutputStream || ctx.ReadCurrent == nil || ctx.StoreAside == nil {
		return
	}
	data, err := ctx.ReadCurrent()
	if err != nil {
		return // nothing to version yet
	}
	v.mu.Lock()
	v.count++
	n := v.count
	v.mu.Unlock()
	label := fmt.Sprintf("version-%d", n)
	where, err := ctx.StoreAside(label, data)
	if err != nil {
		return
	}
	if ctx.AttachStatic != nil {
		ctx.AttachStatic(label, where)
	}
}

// SavedVersions reports how many snapshots this property has archived.
func (v *Versioning) SavedVersions() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count
}

// Replicator is the paper's replication property ("keep at home and
// the office"): driven by timer events, it copies the document content
// to a second repository once per interval — "assuming that Eyal's
// replication between PARC and Rice occurs only once at the end of the
// day".
type Replicator struct {
	Base
	// Target is the destination repository; TargetPath the location
	// written there.
	Target     repo.Repository
	TargetPath string
	// Interval is the replication period.
	Interval time.Duration

	mu   sync.Mutex
	runs int
	errs int
}

// NewReplicator returns a replication property copying to target at
// the given interval.
func NewReplicator(target repo.Repository, targetPath string, interval time.Duration) *Replicator {
	return &Replicator{
		Base:       Base{PropName: "replicate:" + target.Name()},
		Target:     target,
		TargetPath: targetPath,
		Interval:   interval,
	}
}

// Events implements Active: the replicator wakes on its own
// attachment (to arm the first timer) and on timer events.
func (*Replicator) Events() []event.Kind { return []event.Kind{event.SetProperty, event.Timer} }

// OnEvent implements Active.
func (r *Replicator) OnEvent(ctx *EventContext, e event.Event) {
	switch e.Kind {
	case event.SetProperty:
		if e.Property == r.Name() && ctx.ScheduleTimer != nil {
			ctx.ScheduleTimer(r.Interval)
		}
	case event.Timer:
		if e.Property != r.Name() {
			return
		}
		r.replicate(ctx)
		if ctx.ScheduleTimer != nil {
			ctx.ScheduleTimer(r.Interval)
		}
	}
}

func (r *Replicator) replicate(ctx *EventContext) {
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
	if ctx.ReadCurrent == nil {
		return
	}
	data, err := ctx.ReadCurrent()
	if err == nil {
		err = r.Target.Store(r.TargetPath, data)
	}
	if err != nil {
		r.mu.Lock()
		r.errs++
		r.mu.Unlock()
	}
}

// Runs reports (attempted, failed) replication cycles.
func (r *Replicator) Runs() (runs, errs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs, r.errs
}

// AuditRecord is one entry in a read-audit trail.
type AuditRecord struct {
	// Time is when the access occurred.
	Time time.Time
	// User is the accessing reference owner.
	User string
	// Kind is the audited operation.
	Kind event.Kind
	// Forwarded marks records produced by cache-forwarded events
	// rather than full read-path executions.
	Forwarded bool
}

// AuditTrail is the paper's read-audit-trail property: it "only needs
// to know when read operations occur, but does not need to receive the
// actual content being read". It therefore votes CacheWithEvents —
// content may be cached, but the cache must keep forwarding operation
// events so the trail stays complete on hits.
type AuditTrail struct {
	Base
	mu      sync.Mutex
	records []AuditRecord
}

// NewAuditTrail returns an empty audit trail property.
func NewAuditTrail() *AuditTrail { return &AuditTrail{Base: Base{PropName: "audit-trail"}} }

// Events implements Active.
func (*AuditTrail) Events() []event.Kind {
	return []event.Kind{event.GetInputStream, event.GetOutputStream}
}

// OnEvent implements Active by recording the access. Events forwarded
// by a cache carry Detail "forwarded".
func (a *AuditTrail) OnEvent(ctx *EventContext, e event.Event) {
	if e.Kind != event.GetInputStream && e.Kind != event.GetOutputStream {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.records = append(a.records, AuditRecord{
		Time:      e.Time,
		User:      e.User,
		Kind:      e.Kind,
		Forwarded: e.Detail == "forwarded",
	})
}

// WrapInput implements Active: no interception, but the trail requires
// operation events to keep flowing, hence the CacheWithEvents vote.
func (a *AuditTrail) WrapInput(ctx *ReadContext) stream.Transform {
	ctx.Vote(CacheWithEvents)
	return nil
}

// WrapOutput implements Active: no interception. The trail audits
// writes through its getOutputStream handler, which every write runs.
func (a *AuditTrail) WrapOutput(ctx *WriteContext) stream.Transform {
	return nil
}

// Records returns a copy of the trail.
func (a *AuditTrail) Records() []AuditRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditRecord, len(a.records))
	copy(out, a.records)
	return out
}

// QoS is a Quality-of-Service property such as "access time < .25
// seconds" (paper §5). It influences cache replacement by inflating
// the document's replacement cost, making eviction less likely, and
// records its latency target for harnesses that check compliance.
type QoS struct {
	Base
	// MaxLatency is the access-time requirement being expressed.
	MaxLatency time.Duration
	// CostFactor scales the replacement cost accumulated by the rest
	// of the read path (applied when this property runs; attach QoS
	// at the reference so it runs last and scales the whole path).
	CostFactor float64
	// CostFloor, if positive, raises the replacement cost to at
	// least this value.
	CostFloor time.Duration
}

// NewQoS returns a QoS property with the given latency target and
// cost inflation factor.
func NewQoS(maxLatency time.Duration, factor float64) *QoS {
	return &QoS{
		Base:       Base{PropName: fmt.Sprintf("qos<%v", maxLatency)},
		MaxLatency: maxLatency,
		CostFactor: factor,
	}
}

// Events implements Active.
func (*QoS) Events() []event.Kind { return []event.Kind{event.GetInputStream} }

// WrapInput implements Active: inflates replacement cost, intercepts
// nothing.
func (q *QoS) WrapInput(ctx *ReadContext) stream.Transform {
	if q.CostFactor > 1 {
		ctx.ScaleCost(q.CostFactor)
	}
	if q.CostFloor > 0 {
		ctx.FloorCost(q.CostFloor)
	}
	return nil
}
