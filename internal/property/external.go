package property

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"placeless/internal/event"
	"placeless/internal/stream"
)

// ExternalVar models information completely external to the Placeless
// system that active properties depend on — "current time, data stored
// in databases and other on-line sources" or the stock quotes behind a
// financial portfolio page (paper §3, invalidation cause 4). It is a
// versioned float with change subscriptions, so the same source can be
// tracked either by a verifier (poll on hit) or by a notifier (push on
// change), which is exactly the tradeoff experiment E1 measures.
type ExternalVar struct {
	mu      sync.Mutex
	name    string
	value   float64
	version int64
	subs    []func(value float64, version int64)
}

// NewExternalVar returns a source with an initial value.
func NewExternalVar(name string, value float64) *ExternalVar {
	return &ExternalVar{name: name, value: value, version: 1}
}

// Name identifies the source.
func (v *ExternalVar) Name() string { return v.name }

// Get returns the current value and version.
func (v *ExternalVar) Get() (float64, int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.value, v.version
}

// Value returns just the current value.
func (v *ExternalVar) Value() float64 {
	val, _ := v.Get()
	return val
}

// Set updates the value, bumps the version, and fires change
// subscriptions synchronously.
func (v *ExternalVar) Set(value float64) {
	v.mu.Lock()
	v.value = value
	v.version++
	version := v.version
	subs := make([]func(float64, int64), len(v.subs))
	copy(subs, v.subs)
	v.mu.Unlock()
	for _, fn := range subs {
		fn(value, version)
	}
}

// OnChange subscribes fn to future Set calls.
func (v *ExternalVar) OnChange(fn func(value float64, version int64)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.subs = append(v.subs, fn)
}

// ConsistencyMode selects how a property that depends on external
// information keeps caches consistent with it.
type ConsistencyMode int

const (
	// ByVerifier returns a verifier that polls the source version on
	// every cache hit.
	ByVerifier ConsistencyMode = iota
	// ByNotifier pushes an invalidation when the source changes; the
	// cached entry is served without per-hit checks.
	ByNotifier
	// ByThreshold returns a Threshold verifier that tolerates small
	// value changes (the portfolio-page policy).
	ByThreshold
)

// ExternalInfo is a read-path property whose output embeds the value
// of an ExternalVar, making cached content stale whenever the source
// moves. Its Mode decides whether staleness is caught by a verifier, a
// notifier, or a significance threshold — the paper notes "invalidation
// policies could either be placed in a notifier or a verifier".
type ExternalInfo struct {
	Base
	// Source is the external dependency.
	Source *ExternalVar
	// Mode selects the consistency mechanism.
	Mode ConsistencyMode
	// Tolerance applies in ByThreshold mode.
	Tolerance float64
	// ExecCost is the simulated cost of rendering the value into the
	// document.
	ExecCost time.Duration
	// NotifyChange, used in ByNotifier mode, is wired by the
	// document space when the property is attached; it dispatches an
	// externalChange event for the owning document.
	NotifyChange func()

	hooked bool
	mu     sync.Mutex
}

// NewExternalInfo returns a property embedding source's value under
// the given consistency mode.
func NewExternalInfo(source *ExternalVar, mode ConsistencyMode, cost time.Duration) *ExternalInfo {
	return &ExternalInfo{
		Base:     Base{PropName: "external:" + source.Name()},
		Source:   source,
		Mode:     mode,
		ExecCost: cost,
	}
}

// Events implements Active.
func (*ExternalInfo) Events() []event.Kind {
	return []event.Kind{event.GetInputStream, event.SetProperty}
}

// OnEvent implements Active: on its own attachment in ByNotifier mode,
// it hooks the source so future changes raise externalChange events
// (which cache notifiers can subscribe to).
func (x *ExternalInfo) OnEvent(ctx *EventContext, e event.Event) {
	if e.Kind != event.SetProperty || e.Property != x.Name() || x.Mode != ByNotifier {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.hooked || x.NotifyChange == nil {
		return
	}
	x.hooked = true
	notify := x.NotifyChange
	x.Source.OnChange(func(float64, int64) { notify() })
}

// WrapInput implements Active: appends the rendered value to the
// content and registers the mode-appropriate verifier.
func (x *ExternalInfo) WrapInput(ctx *ReadContext) stream.Transform {
	value, version := x.Source.Get()
	ctx.AddCost(x.ExecCost)
	switch x.Mode {
	case ByVerifier:
		src := x.Source
		ctx.AddVerifier(FuncVerifier{
			VerifierName: "external:" + src.Name(),
			Fn: func(time.Time) (bool, error) {
				_, now := src.Get()
				return now == version, nil
			},
		})
	case ByThreshold:
		src := x.Source
		ctx.AddVerifier(Threshold{
			VerifierName: src.Name(),
			Source:       src.Value,
			Reference:    value,
			Tolerance:    x.Tolerance,
		})
	case ByNotifier:
		// Consistency is push-based; nothing to check per hit.
	}
	line := []byte(fmt.Sprintf("\n%s = %s (v%d)\n", x.Source.Name(), strconv.FormatFloat(value, 'f', 2, 64), version))
	cost, sleep := x.ExecCost, ctx.Sleep
	return func(b []byte) []byte {
		if sleep != nil && cost > 0 {
			sleep(cost)
		}
		return append(append([]byte{}, b...), line...)
	}
}
