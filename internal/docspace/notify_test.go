package docspace

import (
	"errors"
	"testing"

	"placeless/internal/event"
	"placeless/internal/property"
)

// TestNotifierPairRetriesWhatFailed: a spot is remembered only once the
// space accepted its notifier, so an Ensure that ran before the
// document or the reference existed is repeated in full later; Close
// detaches everything, and an Ensure that loses the race with Close
// leaves nothing behind.
func TestNotifierPairRetriesWhatFailed(t *testing.T) {
	f := newFixture(t)
	var docEvents, refEvents int
	p := NewNotifierPair(f.space, "notifier:t",
		func(event.Event) { docEvents++ }, func(event.Event) { refEvents++ })
	attached := func(user string, level Level) []string {
		names, err := f.space.Actives("d", user, level)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	if err := p.Ensure("d", "eyal"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("Ensure before create: err = %v, want ErrNoDocument", err)
	}
	f.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	if err := p.Ensure("d", "doug"); !errors.Is(err, ErrNoReference) {
		t.Fatalf("Ensure before the reference: err = %v, want ErrNoReference", err)
	}
	if got := attached("", Universal); len(got) != 1 || got[0] != "notifier:t:d:base" {
		t.Fatalf("base notifiers = %v", got)
	}
	if _, err := f.space.AddReference("d", "doug"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second call finds both installed
		if err := p.Ensure("d", "doug"); err != nil {
			t.Fatal(err)
		}
	}
	if got := attached("doug", Personal); len(got) != 1 || got[0] != "notifier:t:d:doug" {
		t.Fatalf("reference notifiers = %v", got)
	}

	if err := f.space.WriteDocument("d", "eyal", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "doug", Personal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	if docEvents != 1 || refEvents != 1 {
		t.Fatalf("callbacks: onDoc %d, onRef %d, want 1 and 1", docEvents, refEvents)
	}

	p.Close()
	if err := p.Ensure("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if base, eyal, doug := attached("", Universal), attached("eyal", Personal), attached("doug", Personal); len(base) != 0 || len(eyal) != 0 || len(doug) != 1 {
		t.Fatalf("after Close: base %v, eyal %v, doug %v; want only doug's uppercaser", base, eyal, doug)
	}
}
