package property

import (
	"errors"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/event"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

func memRepo(clk clock.Clock) *repo.Mem {
	return repo.NewMem("mem", clk, simnet.NewPath("p", 1))
}

func TestVersioningArchivesOnWrite(t *testing.T) {
	v := NewVersioning()
	var archived [][]byte
	var attached []Static
	ctx := &EventContext{
		Doc:         "d",
		ReadCurrent: func() ([]byte, error) { return []byte("current content"), nil },
		StoreAside: func(label string, data []byte) (string, error) {
			archived = append(archived, append([]byte{}, data...))
			return "/archive/" + label, nil
		},
		AttachStatic: func(key, value string) { attached = append(attached, Static{key, value}) },
	}
	v.OnEvent(ctx, event.Event{Kind: event.GetOutputStream, Doc: "d"})
	if len(archived) != 1 || string(archived[0]) != "current content" {
		t.Fatalf("archived = %v", archived)
	}
	if len(attached) != 1 || attached[0].Key != "version-1" || !strings.Contains(attached[0].Value, "version-1") {
		t.Fatalf("attached = %v", attached)
	}
	if v.SavedVersions() != 1 {
		t.Fatalf("SavedVersions = %d", v.SavedVersions())
	}
}

func TestVersioningIgnoresOtherEvents(t *testing.T) {
	v := NewVersioning()
	ctx := &EventContext{
		ReadCurrent: func() ([]byte, error) { return []byte("x"), nil },
		StoreAside:  func(string, []byte) (string, error) { t.Fatal("archived on read"); return "", nil },
	}
	v.OnEvent(ctx, event.Event{Kind: event.GetInputStream})
	if v.SavedVersions() != 0 {
		t.Fatal("versioned on a read event")
	}
}

func TestVersioningSkipsWhenNoContentYet(t *testing.T) {
	v := NewVersioning()
	ctx := &EventContext{
		ReadCurrent: func() ([]byte, error) { return nil, errors.New("not found") },
		StoreAside:  func(string, []byte) (string, error) { t.Fatal("archived missing doc"); return "", nil },
	}
	v.OnEvent(ctx, event.Event{Kind: event.GetOutputStream})
	if v.SavedVersions() != 0 {
		t.Fatal("counted a failed snapshot")
	}
}

func TestReplicatorTimerCycle(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	target := memRepo(clk)
	r := NewReplicator(target, "/rice/hotos.doc", 24*time.Hour)

	if ks := r.Events(); len(ks) != 2 {
		t.Fatalf("Events = %v", ks)
	}

	var scheduled []time.Duration
	content := []byte("draft v1")
	ctx := &EventContext{
		Doc:           "d",
		ReadCurrent:   func() ([]byte, error) { return content, nil },
		ScheduleTimer: func(d time.Duration) { scheduled = append(scheduled, d) },
	}

	// Attachment arms the first timer.
	r.OnEvent(ctx, event.Event{Kind: event.SetProperty, Property: r.Name()})
	if len(scheduled) != 1 || scheduled[0] != 24*time.Hour {
		t.Fatalf("scheduled = %v", scheduled)
	}

	// Timer fires: replicate and re-arm.
	r.OnEvent(ctx, event.Event{Kind: event.Timer, Property: r.Name()})
	if len(scheduled) != 2 {
		t.Fatalf("timer did not re-arm: %v", scheduled)
	}
	fr, err := target.Fetch("/rice/hotos.doc")
	if err != nil || string(fr.Data) != "draft v1" {
		t.Fatalf("replica = %q, %v", fr.Data, err)
	}
	if runs, errs := r.Runs(); runs != 1 || errs != 0 {
		t.Fatalf("Runs = %d,%d", runs, errs)
	}
}

func TestReplicatorIgnoresForeignEvents(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	r := NewReplicator(memRepo(clk), "/x", time.Hour)
	armed := false
	ctx := &EventContext{ScheduleTimer: func(time.Duration) { armed = true }}
	r.OnEvent(ctx, event.Event{Kind: event.SetProperty, Property: "someone-else"})
	r.OnEvent(ctx, event.Event{Kind: event.Timer, Property: "someone-else"})
	if armed {
		t.Fatal("replicator reacted to another property's events")
	}
}

func TestReplicatorCountsErrors(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	feed := repo.NewLiveFeed("cam", clk, simnet.NewPath("p", 1), 8) // read-only target
	r := NewReplicator(feed, "/x", time.Hour)
	ctx := &EventContext{ReadCurrent: func() ([]byte, error) { return []byte("d"), nil }}
	r.OnEvent(ctx, event.Event{Kind: event.Timer, Property: r.Name()})
	if runs, errs := r.Runs(); runs != 1 || errs != 1 {
		t.Fatalf("Runs = %d,%d, want 1,1", runs, errs)
	}
}

func TestAuditTrailRecordsReadsAndWrites(t *testing.T) {
	a := NewAuditTrail()
	ctx := &EventContext{}
	a.OnEvent(ctx, event.Event{Kind: event.GetInputStream, User: "eyal", Time: epoch})
	a.OnEvent(ctx, event.Event{Kind: event.GetOutputStream, User: "doug", Time: epoch.Add(time.Second)})
	a.OnEvent(ctx, event.Event{Kind: event.SetProperty, User: "paul"}) // not audited
	recs := a.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].User != "eyal" || recs[0].Kind != event.GetInputStream {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].User != "doug" || recs[1].Kind != event.GetOutputStream {
		t.Fatalf("rec1 = %+v", recs[1])
	}
}

func TestAuditTrailMarksForwardedEvents(t *testing.T) {
	a := NewAuditTrail()
	a.OnEvent(&EventContext{}, event.Event{Kind: event.GetInputStream, Detail: "forwarded"})
	if recs := a.Records(); !recs[0].Forwarded {
		t.Fatal("forwarded event not marked")
	}
}

func TestAuditTrailVotesCacheWithEvents(t *testing.T) {
	a := NewAuditTrail()
	rc := &ReadContext{}
	if w := a.WrapInput(rc); w != nil {
		t.Fatal("audit trail must not intercept content")
	}
	if rc.Result().Cacheability != CacheWithEvents {
		t.Fatalf("vote = %v, want cacheWithEvents", rc.Result().Cacheability)
	}
}

func TestQoSInflatesCost(t *testing.T) {
	q := NewQoS(250*time.Millisecond, 4)
	rc := &ReadContext{}
	rc.AddCost(10 * time.Millisecond)
	if w := q.WrapInput(rc); w != nil {
		t.Fatal("QoS must not intercept content")
	}
	if got := rc.Result().Cost; got != 40*time.Millisecond {
		t.Fatalf("cost = %v, want 40ms", got)
	}
	if !strings.Contains(q.Name(), "250ms") {
		t.Fatalf("Name = %q", q.Name())
	}
}

func TestQoSCostFloor(t *testing.T) {
	q := &QoS{Base: Base{PropName: "qos"}, CostFloor: time.Second}
	rc := &ReadContext{}
	rc.AddCost(time.Millisecond)
	q.WrapInput(rc)
	if got := rc.Result().Cost; got != time.Second {
		t.Fatalf("cost = %v, want floor 1s", got)
	}
}

func TestExternalVarVersioningAndSubs(t *testing.T) {
	v := NewExternalVar("XRX", 55)
	if val, ver := v.Get(); val != 55 || ver != 1 {
		t.Fatalf("Get = %v,%v", val, ver)
	}
	var notified []float64
	v.OnChange(func(val float64, _ int64) { notified = append(notified, val) })
	v.Set(60)
	v.Set(61)
	if _, ver := v.Get(); ver != 3 {
		t.Fatalf("version = %d", ver)
	}
	if len(notified) != 2 || notified[1] != 61 {
		t.Fatalf("notified = %v", notified)
	}
}

func TestExternalInfoVerifierMode(t *testing.T) {
	src := NewExternalVar("quote", 100)
	x := NewExternalInfo(src, ByVerifier, 0)
	rc := &ReadContext{Now: epoch}
	out := x.WrapInput(rc)([]byte("portfolio"))
	if !strings.Contains(string(out), "quote = 100.00") {
		t.Fatalf("out = %q", out)
	}
	res := rc.Result()
	if len(res.Verifiers) != 1 {
		t.Fatalf("verifiers = %d", len(res.Verifiers))
	}
	if ok, _ := res.Verifiers[0].Check(epoch); !ok {
		t.Fatal("fresh external value reported stale")
	}
	src.Set(101)
	if ok, _ := res.Verifiers[0].Check(epoch); ok {
		t.Fatal("changed external value reported fresh")
	}
}

func TestExternalInfoThresholdMode(t *testing.T) {
	src := NewExternalVar("quote", 100)
	x := NewExternalInfo(src, ByThreshold, 0)
	x.Tolerance = 5
	rc := &ReadContext{Now: epoch}
	x.WrapInput(rc)
	ver := rc.Result().Verifiers[0]
	src.Set(103)
	if ok, _ := ver.Check(epoch); !ok {
		t.Fatal("in-tolerance change invalidated")
	}
	src.Set(110)
	if ok, _ := ver.Check(epoch); ok {
		t.Fatal("out-of-tolerance change not detected")
	}
}

func TestExternalInfoNotifierMode(t *testing.T) {
	src := NewExternalVar("quote", 100)
	x := NewExternalInfo(src, ByNotifier, 0)
	pushed := 0
	x.NotifyChange = func() { pushed++ }

	// Attachment hooks the source.
	x.OnEvent(&EventContext{}, event.Event{Kind: event.SetProperty, Property: x.Name()})
	// Duplicate attach must not double-hook.
	x.OnEvent(&EventContext{}, event.Event{Kind: event.SetProperty, Property: x.Name()})

	rc := &ReadContext{Now: epoch}
	x.WrapInput(rc)
	if n := len(rc.Result().Verifiers); n != 0 {
		t.Fatalf("notifier mode returned %d verifiers, want 0", n)
	}
	src.Set(50)
	if pushed != 1 {
		t.Fatalf("pushed = %d, want 1", pushed)
	}
}
