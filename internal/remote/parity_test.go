package remote

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// tableTwin is one of two identical worlds the parity script runs in:
// a space on its own virtual clock, and the repositories behind it.
type tableTwin struct {
	clk   *clock.Virtual
	space *docspace.Space
	mem   *repo.Mem
}

const (
	parityBody = "the body every user of d shares"
	parityCap  = 200 // bytes: d's body, w's page and three of the e documents
)

var (
	parityDocs  = []string{"d", "w", "e0", "e1", "e2", "e3"}
	parityUsers = []string{"u0", "u1"}
)

// newTableTwin builds the script's world: d, whose two users see the
// same bytes through a memoizable universal property; w, a web page
// with a 30 s TTL; and e0–e3, distinct 40-byte bodies, to fill the
// budget. Every fetch and transform is free, so the replacement policy
// weighs keys by size alone in both placements.
func newTableTwin(t *testing.T) *tableTwin {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	tw := &tableTwin{clk: clk, space: docspace.New(clk, nil), mem: repo.NewMem("srv", clk, simnet.NewPath("loop", 1))}
	create := func(doc string, bits property.BitProvider) {
		if _, err := tw.space.CreateDocument(doc, "u0", bits); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.space.AddReference(doc, "u1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.mem.Store("/d", []byte(parityBody)); err != nil {
		t.Fatal(err)
	}
	create("d", &property.RepoBitProvider{Repo: tw.mem, Path: "/d"})
	if err := tw.space.Attach("d", "", docspace.Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	web := repo.NewWeb("web", clk, simnet.NewPath("web", 2), 30*time.Second, true)
	web.SetPage("/w", []byte("a page with a deadline"))
	create("w", &property.RepoBitProvider{Repo: web, Path: "/w"})
	for i, doc := range parityDocs[2:] {
		if err := tw.mem.Store("/"+doc, []byte(fmt.Sprintf("%-40d", i))); err != nil {
			t.Fatal(err)
		}
		create(doc, &property.RepoBitProvider{Repo: tw.mem, Path: "/" + doc})
	}
	return tw
}

// tablePlacement is a cache placement reduced to what the parity script
// needs from it.
type tablePlacement struct {
	name  string
	twin  *tableTwin
	read  func(doc, user string) error
	has   func(doc, user string) bool
	bytes func() int64
}

// entries lists the (doc, user) keys the placement holds.
func (p *tablePlacement) entries() []string {
	var out []string
	for _, d := range parityDocs {
		for _, u := range parityUsers {
			if p.has(d, u) {
				out = append(out, d+"/"+u)
			}
		}
	}
	return out
}

// TestOneTableParity runs one script through the origin's cache (a
// memoizing core.Cache) and through a remote.Cache over a loopback
// origin, and asserts after every step that both hold the same entries
// over the same number of stored bytes: install and hit, one blob under
// identical bodies, a passed TTL deadline, a document-wide and a
// per-user invalidation, eviction at capacity, and the end of the
// table — Close at the origin, a reconnect flush at the sidecar.
func TestOneTableParity(t *testing.T) {
	originTwin, sidecarTwin := newTableTwin(t), newTableTwin(t)

	origin := core.New(originTwin.space, core.Options{Name: "parity", Capacity: parityCap, Memoize: true})
	srv := server.New(sidecarTwin.space, sidecarTwin.mem)
	r := &rig{srv: srv, client: serveAndDial(t, srv), space: sidecarTwin.space}
	r.cache = New(r.client, Options{Capacity: parityCap, Clock: sidecarTwin.clk})

	placements := []*tablePlacement{
		{
			name: "origin", twin: originTwin,
			read:  func(doc, user string) error { _, err := origin.Read(doc, user); return err },
			has:   origin.Contains,
			bytes: func() int64 { return origin.Stats().BytesStored },
		},
		{
			name: "sidecar", twin: sidecarTwin,
			read:  func(doc, user string) error { _, err := r.cache.Read(doc, user); return err },
			has:   r.cache.Contains,
			bytes: func() int64 { return r.cache.Stats().BytesStored },
		},
	}
	o, s := placements[0], placements[1]

	// step runs do in both placements and then requires the same
	// entries and bytes, want among them. The sidecar hears of changes
	// through pushes, so it is given a moment to agree.
	step := func(name string, want []string, wantBytes int64, do func(p *tablePlacement) error) {
		t.Helper()
		for _, p := range placements {
			if err := do(p); err != nil {
				t.Fatalf("%s: %s: %v", name, p.name, err)
			}
		}
		agree := func() bool {
			return reflect.DeepEqual(o.entries(), s.entries()) && o.bytes() == s.bytes()
		}
		for deadline := time.Now().Add(2 * time.Second); !agree() && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		if !agree() {
			t.Fatalf("%s: origin holds %v over %d bytes, sidecar %v over %d", name, o.entries(), o.bytes(), s.entries(), s.bytes())
		}
		if got := o.entries(); !reflect.DeepEqual(got, want) || o.bytes() != wantBytes {
			t.Fatalf("%s: both hold %v over %d bytes, want %v over %d", name, got, o.bytes(), want, wantBytes)
		}
	}
	reads := func(keys ...string) func(p *tablePlacement) error {
		return func(p *tablePlacement) error {
			for _, k := range keys {
				doc, user, _ := strings.Cut(k, "/")
				if err := p.read(doc, user); err != nil {
					return err
				}
			}
			return nil
		}
	}
	body := int64(len(parityBody))
	page := int64(len("a page with a deadline"))

	step("install and hit", []string{"d/u0"}, body, reads("d/u0", "d/u0"))
	if st := r.cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("sidecar after install and hit: %+v", st)
	}
	step("identical bodies share one blob", []string{"d/u0", "d/u1"}, body, reads("d/u1"))

	step("w installed", []string{"d/u0", "d/u1", "w/u0"}, body+page, reads("w/u0"))
	rejects, expiries := origin.Stats().VerifierRejects, r.cache.Stats().TTLExpiries
	step("a TTL deadline passes", []string{"d/u0", "d/u1", "w/u0"}, body+page, func(p *tablePlacement) error {
		p.twin.clk.Advance(31 * time.Second)
		return p.read("w", "u0")
	})
	if got := origin.Stats().VerifierRejects - rejects; got != 1 {
		t.Fatalf("origin: %d verifier rejects for the passed deadline, want 1", got)
	}
	if got := r.cache.Stats().TTLExpiries - expiries; got != 1 {
		t.Fatalf("sidecar: %d TTL expiries for the passed deadline, want 1", got)
	}

	step("a document-wide invalidation", []string{"w/u0"}, page, func(p *tablePlacement) error {
		return p.twin.space.WriteDocument("d", "u0", []byte(parityBody))
	})
	step("d re-read", []string{"d/u0", "d/u1", "w/u0"}, body+page, reads("d/u0", "d/u1"))
	step("a per-user invalidation", []string{"d/u0", "w/u0"}, body+page, func(p *tablePlacement) error {
		return p.twin.space.Attach("d", "u1", docspace.Personal, property.NewRot13(0))
	})

	// d (31 bytes) and w (22) leave room for three 40-byte bodies, and
	// the fourth evicts one. Every key costs the same to rebuild, so
	// Greedy-Dual-Size ranks by size and then by age: e0 goes (at the
	// origin after its cut, which shares its blob and frees nothing).
	step("eviction at capacity", []string{"d/u0", "w/u0", "e1/u0", "e2/u0", "e3/u0"}, body+page+120, reads("e0/u0", "e1/u0", "e2/u0", "e3/u0"))
	if st := r.cache.Stats(); st.Evictions != 1 {
		t.Fatalf("sidecar evicted %d entries, want 1", st.Evictions)
	}

	step("the end of the table", nil, 0, func(p *tablePlacement) error {
		if p == o {
			origin.Close()
			return nil
		}
		r.cache.onConnState(server.StateConnected, r.client.Epoch())
		return nil
	})
}
