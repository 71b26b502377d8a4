package property

import (
	"errors"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

func TestTTLVerifier(t *testing.T) {
	v := NewTTLVerifier(epoch, 30*time.Second)
	if ok, err := v.Check(epoch.Add(29 * time.Second)); !ok || err != nil {
		t.Fatalf("fresh entry invalid: %v %v", ok, err)
	}
	if ok, _ := v.Check(epoch.Add(30 * time.Second)); !ok {
		t.Fatal("entry at exact expiry should still be valid")
	}
	if ok, _ := v.Check(epoch.Add(31 * time.Second)); ok {
		t.Fatal("expired entry reported valid")
	}
	if v.Name() != "ttl" {
		t.Fatalf("Name = %q", v.Name())
	}
}

func TestMTimeVerifierDetectsSourceChange(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("src", clk, simnet.NewPath("p", 1))
	m.Store("/f", []byte("v1"))
	meta, _ := m.Stat("/f")
	v := MTimeVerifier{Repo: m, Path: "/f", ModTime: meta.ModTime, Version: meta.Version, Size: meta.Size}

	if ok, err := v.Check(clk.Now()); !ok || err != nil {
		t.Fatalf("unchanged source invalid: %v %v", ok, err)
	}
	clk.Advance(time.Minute)
	m.UpdateDirect("/f", []byte("v2")) // out-of-band change
	if ok, _ := v.Check(clk.Now()); ok {
		t.Fatal("mtime verifier missed out-of-band update")
	}
	if !strings.Contains(v.Name(), "src") {
		t.Fatalf("Name = %q", v.Name())
	}
}

func TestMTimeVerifierSourceGone(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("src", clk, simnet.NewPath("p", 1))
	m.Store("/f", []byte("v1"))
	meta, _ := m.Stat("/f")
	v := MTimeVerifier{Repo: m, Path: "/f", ModTime: meta.ModTime, Version: meta.Version, Size: meta.Size}
	m.Delete("/f")
	ok, err := v.Check(clk.Now())
	if ok || err == nil {
		t.Fatalf("deleted source: ok=%v err=%v, want invalid with error", ok, err)
	}
}

func TestMTimeVerifierChargesClock(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	p := simnet.NewPath("wan", 1, simnet.Link{Latency: 80 * time.Millisecond})
	m := repo.NewMem("far", clk, p)
	m.Store("/f", []byte("x"))
	meta, _ := m.Stat("/f")
	v := MTimeVerifier{Repo: m, Path: "/f", ModTime: meta.ModTime, Version: meta.Version, Size: meta.Size}
	before := clk.Now()
	v.Check(before)
	if got := clk.Now().Sub(before); got != 80*time.Millisecond {
		t.Fatalf("verifier check charged %v, want the Stat round trip", got)
	}
}

func TestFuncVerifier(t *testing.T) {
	calls := 0
	v := FuncVerifier{VerifierName: "custom", Fn: func(time.Time) (bool, error) {
		calls++
		return calls < 3, nil
	}}
	if ok, _ := v.Check(epoch); !ok {
		t.Fatal("first check should pass")
	}
	v.Check(epoch)
	if ok, _ := v.Check(epoch); ok {
		t.Fatal("third check should fail")
	}
	if v.Name() != "custom" {
		t.Fatalf("Name = %q", v.Name())
	}
}

func TestFuncVerifierNilFn(t *testing.T) {
	v := FuncVerifier{VerifierName: "nil"}
	if ok, err := v.Check(epoch); ok || err == nil {
		t.Fatal("nil Fn must be invalid with error")
	}
}

func TestCompositeAllMustPass(t *testing.T) {
	pass := FuncVerifier{VerifierName: "p", Fn: func(time.Time) (bool, error) { return true, nil }}
	fail := FuncVerifier{VerifierName: "f", Fn: func(time.Time) (bool, error) { return false, nil }}
	if ok, _ := (Composite{Parts: []Verifier{pass, pass}}).Check(epoch); !ok {
		t.Fatal("all-pass composite failed")
	}
	if ok, _ := (Composite{Parts: []Verifier{pass, fail}}).Check(epoch); ok {
		t.Fatal("composite with failing part passed")
	}
	if ok, _ := (Composite{}).Check(epoch); !ok {
		t.Fatal("empty composite should pass")
	}
}

func TestCompositeShortCircuits(t *testing.T) {
	fail := FuncVerifier{VerifierName: "f", Fn: func(time.Time) (bool, error) { return false, nil }}
	called := false
	spy := FuncVerifier{VerifierName: "s", Fn: func(time.Time) (bool, error) { called = true; return true, nil }}
	(Composite{Parts: []Verifier{fail, spy}}).Check(epoch)
	if called {
		t.Fatal("composite did not short-circuit after failure")
	}
}

func TestCompositePropagatesError(t *testing.T) {
	boom := FuncVerifier{VerifierName: "b", Fn: func(time.Time) (bool, error) { return false, errors.New("poll failed") }}
	ok, err := (Composite{Parts: []Verifier{boom}}).Check(epoch)
	if ok || err == nil {
		t.Fatal("composite swallowed part error")
	}
}

func TestThresholdTolerance(t *testing.T) {
	quote := 100.0
	v := Threshold{VerifierName: "XRX", Source: func() float64 { return quote }, Reference: 100, Tolerance: 5}
	if ok, _ := v.Check(epoch); !ok {
		t.Fatal("unchanged quote invalid")
	}
	quote = 104.9
	if ok, _ := v.Check(epoch); !ok {
		t.Fatal("in-tolerance change invalidated")
	}
	quote = 94.0
	if ok, _ := v.Check(epoch); ok {
		t.Fatal("significant drop not detected")
	}
	quote = 106.0
	if ok, _ := v.Check(epoch); ok {
		t.Fatal("significant rise not detected")
	}
	if !strings.Contains(v.Name(), "XRX") {
		t.Fatalf("Name = %q", v.Name())
	}
}

func TestThresholdNilSource(t *testing.T) {
	v := Threshold{VerifierName: "n"}
	if ok, err := v.Check(epoch); ok || err == nil {
		t.Fatal("nil source must be invalid with error")
	}
}
