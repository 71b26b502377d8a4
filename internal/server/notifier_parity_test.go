package server

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// placement is one of the two places a cache sits, reduced to what its
// docspace.NotifierPair does for it: ensure is the call that installs
// the pair for (doc, user), fired counts the notifications it has
// delivered, close tears the placement down.
type placement struct {
	name   string
	space  *docspace.Space
	ensure func(doc, user string) error
	fired  func() int64
	close  func(t *testing.T)
}

const parityUsers = 32

func parityUser(i int) string { return fmt.Sprintf("u%02d", i) }

// paritySpace builds one of the twin spaces: document "d" owned by u00,
// with a reference for every other user.
func paritySpace(t *testing.T) (*docspace.Space, repo.Repository) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, nil)
	if err := backing.Store("/d", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := space.CreateDocument("d", parityUser(0), &property.RepoBitProvider{Repo: backing, Path: "/d"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < parityUsers; i++ {
		if _, err := space.AddReference("d", parityUser(i)); err != nil {
			t.Fatal(err)
		}
	}
	return space, backing
}

func corePlacement(t *testing.T) placement {
	space, _ := paritySpace(t)
	cache := core.New(space, core.Options{Name: "parity"})
	return placement{
		name:  "core.Cache",
		space: space,
		ensure: func(doc, user string) error {
			_, err := cache.Read(doc, user)
			return err
		},
		fired: func() int64 { return cache.Stats().Notifications },
		close: func(t *testing.T) {
			cache.Close()
		},
	}
}

func serverPlacement(t *testing.T) placement {
	space, backing := paritySpace(t)
	srv := New(space, backing)
	client := serveAndDial(t, srv)
	return placement{
		name:   "server connection",
		space:  space,
		ensure: client.Subscribe,
		fired: func() int64 {
			_, n, _ := srv.Counters()
			return n
		},
		close: func(t *testing.T) {
			client.Close()
			// The server notices the disconnect asynchronously; the
			// connection unregisters after its notifiers are detached.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if _, _, conns := srv.Counters(); conns == 0 {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			t.Fatal("server connection did not tear down")
		},
	}
}

// actives lists what is attached at every node of "d", each name
// prefixed by its node.
func actives(t *testing.T, space *docspace.Space) []string {
	t.Helper()
	var out []string
	add := func(node, user string, level docspace.Level) {
		names, err := space.Actives("d", user, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			out = append(out, node+" "+n)
		}
	}
	add("base", "", docspace.Universal)
	for i := 0; i < parityUsers; i++ {
		add(parityUser(i), parityUser(i), docspace.Personal)
	}
	sort.Strings(out)
	return out
}

// TestNotifierPairParity drives the shared notifier pair through both
// cache placements on twin spaces: the in-process cache installs it on
// a miss, the server installs it on a Subscribe, and everything the
// space can observe of the two must agree — one registration per
// document and per reference however many installs race, a
// notification for exactly the events that change content, no trace in
// the property chain, and nothing left registered after the close.
func TestNotifierPairParity(t *testing.T) {
	uni := func(spec string) property.Active {
		p, err := ParsePropertySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	u0, u1 := parityUser(0), parityUser(1)
	events := []struct {
		name        string
		do          func(s *docspace.Space) error
		invalidates bool
	}{
		{"content write", func(s *docspace.Space) error { return s.WriteDocument("d", u1, []byte("v2")) }, true},
		{"active set on the base", func(s *docspace.Space) error { return s.Attach("d", "", docspace.Universal, uni("uppercase")) }, true},
		{"second active set on the base", func(s *docspace.Space) error { return s.Attach("d", "", docspace.Universal, uni("rot13")) }, true},
		{"active set on a reference", func(s *docspace.Space) error { return s.Attach("d", u0, docspace.Personal, uni("line-number")) }, true},
		{"active modify", func(s *docspace.Space) error {
			return s.Replace("d", "", docspace.Universal, "uppercase", uni("uppercase:1"))
		}, true},
		{"reorder", func(s *docspace.Space) error {
			return s.Reorder("d", "", docspace.Universal, []string{"rot13", "uppercase"})
		}, true},
		{"active remove", func(s *docspace.Space) error { return s.Detach("d", "", docspace.Universal, "rot13") }, true},
		{"external change", func(s *docspace.Space) error { return s.SignalExternalChange("d", "tick") }, true},
		{"static label on the base", func(s *docspace.Space) error {
			return s.AttachStatic("d", "", docspace.Universal, property.Static{Key: "topic", Value: "caching"})
		}, false},
		{"static label on a reference", func(s *docspace.Space) error {
			return s.AttachStatic("d", u0, docspace.Personal, property.Static{Key: "read", Value: "yes"})
		}, false},
		{"another cache's machinery", func(s *docspace.Space) error {
			other := docspace.NewNotifierPair(s, "notifier:other", func(event.Event) {}, func(event.Event) {})
			defer other.Close()
			return other.Ensure("d", u0)
		}, false},
	}

	for _, p := range []placement{corePlacement(t), serverPlacement(t)} {
		// Every user's first access at once, plus everyone piling onto
		// u00's pair: one notifier per document and per reference.
		var wg sync.WaitGroup
		for i := 0; i < parityUsers; i++ {
			wg.Add(1)
			go func(user string) {
				defer wg.Done()
				for _, u := range []string{user, u0} {
					if err := p.ensure("d", u); err != nil {
						t.Errorf("%s: ensure d/%s: %v", p.name, u, err)
					}
				}
			}(parityUser(i))
		}
		wg.Wait()
		if got := actives(t, p.space); len(got) != 0 {
			t.Fatalf("%s: the notifiers joined the property chain: %v", p.name, got)
		}
		// One registration per reference: a personal change notifies
		// once, whichever and however many installs reached that spot.
		notifies := func(what string, want int64, do func() error) {
			t.Helper()
			before := p.fired()
			if err := do(); err != nil {
				t.Fatalf("%s: %s: %v", p.name, what, err)
			}
			if got := p.fired() - before; got != want {
				t.Errorf("%s: %s: %d notifications, want %d", p.name, what, got, want)
			}
		}
		for i := 0; i < parityUsers; i++ {
			u := parityUser(i)
			notifies("personal attach for "+u, 1, func() error {
				return p.space.Attach("d", u, docspace.Personal, uni("rot13"))
			})
			notifies("personal detach for "+u, 1, func() error {
				return p.space.Detach("d", u, docspace.Personal, "rot13")
			})
		}

		for _, ev := range events {
			want := int64(0)
			if ev.invalidates {
				want = 1
			}
			notifies(ev.name, want, func() error { return ev.do(p.space) })
		}

		// What the events attached is user-visible and stays; after the
		// close a change notifies no one.
		visible := []string{"base uppercase", u0 + " line-number"}
		p.close(t)
		if left := actives(t, p.space); !reflect.DeepEqual(left, visible) {
			t.Errorf("%s: attached after close = %v, want %v", p.name, left, visible)
		}
		notifies("content write after close", 0, func() error { return p.space.WriteDocument("d", u1, []byte("v3")) })
	}
}
