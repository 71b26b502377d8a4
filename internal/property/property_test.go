package property

import (
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/event"
)

func TestCacheabilityString(t *testing.T) {
	cases := map[Cacheability]string{
		Unrestricted:     "unrestricted",
		CacheWithEvents:  "cacheWithEvents",
		Uncacheable:      "uncacheable",
		Cacheability(42): "invalid",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestRestrictPicksMostRestrictive(t *testing.T) {
	if Restrict(Unrestricted, Uncacheable) != Uncacheable {
		t.Fatal("Uncacheable must dominate")
	}
	if Restrict(CacheWithEvents, Unrestricted) != CacheWithEvents {
		t.Fatal("CacheWithEvents must dominate Unrestricted")
	}
}

// Property: Restrict is commutative, associative, and idempotent, so
// aggregate cacheability does not depend on property execution order —
// the invariant §3 of the paper relies on when it says the choices
// "aggregate to the most restrictive value".
func TestRestrictAlgebraProperty(t *testing.T) {
	vals := []Cacheability{Unrestricted, CacheWithEvents, Uncacheable}
	f := func(ai, bi, ci uint8) bool {
		a, b, c := vals[ai%3], vals[bi%3], vals[ci%3]
		if Restrict(a, b) != Restrict(b, a) {
			return false
		}
		if Restrict(Restrict(a, b), c) != Restrict(a, Restrict(b, c)) {
			return false
		}
		return Restrict(a, a) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadContextVoteAggregation(t *testing.T) {
	rc := &ReadContext{}
	rc.Vote(Unrestricted)
	rc.Vote(CacheWithEvents)
	rc.Vote(Unrestricted)
	if got := rc.Result().Cacheability; got != CacheWithEvents {
		t.Fatalf("aggregate = %v, want cacheWithEvents", got)
	}
	rc.Vote(Uncacheable)
	if got := rc.Result().Cacheability; got != Uncacheable {
		t.Fatalf("aggregate = %v, want uncacheable", got)
	}
}

func TestReadContextCostAccumulation(t *testing.T) {
	rc := &ReadContext{}
	rc.AddCost(10 * time.Millisecond)
	rc.AddCost(5 * time.Millisecond)
	rc.AddCost(-time.Hour) // negative ignored
	if got := rc.Result().Cost; got != 15*time.Millisecond {
		t.Fatalf("cost = %v", got)
	}
}

func TestReadContextScaleAndFloor(t *testing.T) {
	rc := &ReadContext{}
	rc.AddCost(10 * time.Millisecond)
	rc.ScaleCost(3)
	if got := rc.Result().Cost; got != 30*time.Millisecond {
		t.Fatalf("scaled cost = %v", got)
	}
	rc.FloorCost(time.Second)
	if got := rc.Result().Cost; got != time.Second {
		t.Fatalf("floored cost = %v", got)
	}
	rc.FloorCost(time.Millisecond) // below current: no-op
	if got := rc.Result().Cost; got != time.Second {
		t.Fatalf("floor lowered cost to %v", got)
	}
}

func TestReadContextVerifierCollection(t *testing.T) {
	rc := &ReadContext{}
	rc.AddVerifier(TTLVerifier{})
	rc.AddVerifier(nil) // ignored
	rc.AddVerifier(FuncVerifier{VerifierName: "x", Fn: func(time.Time) (bool, error) { return true, nil }})
	res := rc.Result()
	if len(res.Verifiers) != 2 {
		t.Fatalf("verifiers = %d, want 2", len(res.Verifiers))
	}
	// Result returns a copy: mutating it must not affect the context.
	res.Verifiers[0] = nil
	if rc.Result().Verifiers[0] == nil {
		t.Fatal("Result aliases internal verifier slice")
	}
}

func TestStaticName(t *testing.T) {
	s := Static{Key: "workshop", Value: "1999"}
	if s.Name() != "workshop" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestBaseDefaults(t *testing.T) {
	b := Base{PropName: "noop"}
	if b.Name() != "noop" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.Events() != nil {
		t.Fatal("Base.Events should be empty")
	}
	if b.WrapInput(&ReadContext{}) != nil || b.WrapOutput(&WriteContext{}) != nil {
		t.Fatal("Base wrappers should be nil")
	}
	b.OnEvent(nil, event.Event{}) // no-op, must not panic
}
