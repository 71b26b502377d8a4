package docspace

import (
	"errors"
	"strings"
	"testing"

	"placeless/internal/event"
	"placeless/internal/property"
)

// TestNotifierPairRetriesWhatFailed: a spot is remembered only once its
// node was found, so an Ensure that ran before the document or the
// reference existed is repeated in full later; a spot registered once
// is never registered twice; the notifiers are not properties; Close
// unsubscribes everything, and an Ensure after Close registers nothing.
func TestNotifierPairRetriesWhatFailed(t *testing.T) {
	f := newFixture(t)
	var docEvents, refEvents int
	p := NewNotifierPair(f.space, "notifier:t",
		func(event.Event) { docEvents++ }, func(event.Event) { refEvents++ })
	installed := func() string { return strings.Join(p.Installed(), " ") }

	if err := p.Ensure("d", "eyal"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("Ensure before create: err = %v, want ErrNoDocument", err)
	}
	if got := installed(); got != "" {
		t.Fatalf("installed after a failed Ensure = %q", got)
	}
	f.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	if err := p.Ensure("d", "doug"); !errors.Is(err, ErrNoReference) {
		t.Fatalf("Ensure before the reference: err = %v, want ErrNoReference", err)
	}
	if got := installed(); got != "notifier:t:d:base" {
		t.Fatalf("installed = %q, want the base only", got)
	}
	if _, err := f.space.AddReference("d", "doug"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second call finds both registered
		if err := p.Ensure("d", "doug"); err != nil {
			t.Fatal(err)
		}
	}
	if got := installed(); got != "notifier:t:d:base notifier:t:d:doug" {
		t.Fatalf("installed = %q", got)
	}
	for _, at := range []struct {
		user  string
		level Level
	}{{"", Universal}, {"doug", Personal}} {
		if names, err := f.space.Actives("d", at.user, at.level); err != nil || len(names) != 0 {
			t.Fatalf("actives at %q = %v, %v; notifiers are not properties", at.user, names, err)
		}
	}

	// Three Ensures reached the base and two the reference: each event
	// still notifies once.
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
	if got := installed(); got != "" {
		t.Fatalf("installed after Close = %q", got)
	}
	if err := f.space.WriteDocument("d", "eyal", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Detach("d", "doug", Personal, "uppercase"); err != nil {
		t.Fatal(err)
	}
	if docEvents != 1 || refEvents != 1 {
		t.Fatalf("callbacks after Close: onDoc %d, onRef %d, want 1 and 1", docEvents, refEvents)
	}
}
