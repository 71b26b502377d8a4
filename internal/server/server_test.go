package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// testServer starts a server on a loopback listener and returns a
// connected client. Dial options apply to the returned client.
func testServer(t *testing.T, opts ...DialOption) (*Server, *Client, *docspace.Space) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	srv := New(space, backing)
	client := serveAndDial(t, srv, opts...)
	return srv, client, space
}

// serveAndDial serves srv on a loopback listener and returns a client
// connected to it; both are torn down with the test.
func serveAndDial(t *testing.T, srv *Server, opts ...DialOption) *Client {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start")
	}
	client, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return client
}

func TestCreateReadWriteRoundTrip(t *testing.T) {
	srv, c, _ := testServer(t)
	var writes obs.Histogram
	srv.SetWriteHistogram(&writes)
	if err := c.CreateDocument("d", "eyal", []byte("hello over tcp")); err != nil {
		t.Fatal(err)
	}
	data, meta, err := c.Read("d", "eyal")
	if err != nil || string(data) != "hello over tcp" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if meta.Cost < 0 {
		t.Fatalf("meta = %+v", meta)
	}
	if err := c.Write("d", "eyal", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	data, _, _ = c.Read("d", "eyal")
	if string(data) != "updated" {
		t.Fatalf("after write: %q", data)
	}
	if writes.Count() != 1 {
		t.Fatalf("write histogram holds %d observations after one OpWrite", writes.Count())
	}
}

// TestRefusedCreateLeavesContent: a create for an id that exists is
// refused before it reaches the repository, so it cannot replace the
// document's bytes behind its properties, versions and notifiers.
func TestRefusedCreateLeavesContent(t *testing.T) {
	_, c, _ := testServer(t)
	if err := c.CreateDocument("d", "u", []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDocument("d", "mallory", []byte("clobbered")); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second create = %v, want a duplicate error", err)
	}
	data, _, err := c.Read("d", "u")
	if err != nil || string(data) != "original" {
		t.Fatalf("read after a refused create = %q, %v; want \"original\"", data, err)
	}
}

// failingStore is a repository whose Store fails, counting the calls.
type failingStore struct {
	repo.Repository
	stores atomic.Int64
}

func (f *failingStore) Store(path string, data []byte) error {
	f.stores.Add(1)
	return errors.New("disk full")
}

// TestCreateStoreFailureUnregisters: a create whose body cannot be
// stored leaves no document registered, so the id can be created again;
// an id the space refuses never reaches the repository.
func TestCreateStoreFailureUnregisters(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	backing := &failingStore{Repository: repo.NewMem("srv", clk, simnet.NewPath("loop", 1))}
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	c := serveAndDial(t, New(space, backing))
	if err := c.CreateDocument("d", "u", []byte("v1")); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("create over a failing store = %v", err)
	}
	if _, err := space.Document("d"); !errors.Is(err, docspace.ErrNoDocument) {
		t.Fatalf("document after a failed store: %v, want ErrNoDocument", err)
	}
	if err := c.CreateDocument("bad\x00id", "u", []byte("v1")); err == nil {
		t.Fatal("create with a NUL id succeeded")
	}
	if n := backing.stores.Load(); n != 1 {
		t.Fatalf("repository saw %d stores, want 1 (the NUL id must not reach it)", n)
	}
}

func TestReadErrorsPropagate(t *testing.T) {
	_, c, _ := testServer(t)
	if _, _, err := c.Read("ghost", "u"); err == nil || !strings.Contains(err.Error(), "no such document") {
		t.Fatalf("err = %v", err)
	}
}

func TestRemotePropertyAttachment(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("teh quick brown fox"))
	if err := c.Attach("d", "eyal", true, "spell-correct"); err != nil {
		t.Fatal(err)
	}
	data, _, _ := c.Read("d", "eyal")
	if !strings.HasPrefix(string(data), "the quick") {
		t.Fatalf("spell correction missing: %q", data)
	}
	names, err := c.ListActives("d", "eyal", true)
	if err != nil || len(names) != 1 || names[0] != "spell-correct" {
		t.Fatalf("actives = %v, %v", names, err)
	}
	if err := c.Detach("d", "eyal", true, "spell-correct"); err != nil {
		t.Fatal(err)
	}
	data, _, _ = c.Read("d", "eyal")
	if !strings.HasPrefix(string(data), "teh quick") {
		t.Fatalf("detach ineffective: %q", data)
	}
}

func TestPersonalVisibilityOverWire(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("shout"))
	if err := c.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	c.Attach("d", "paul", true, "uppercase")
	eyal, _, _ := c.Read("d", "eyal")
	paul, _, _ := c.Read("d", "paul")
	if string(eyal) != "shout" || string(paul) != "SHOUT" {
		t.Fatalf("eyal=%q paul=%q", eyal, paul)
	}
}

func TestStaticAttachment(t *testing.T) {
	_, c, space := testServer(t)
	c.CreateDocument("d", "eyal", []byte("x"))
	if err := c.AttachStatic("d", "", false, "workshop", "1999"); err != nil {
		t.Fatal(err)
	}
	statics, _ := space.Statics("d", "", docspace.Universal)
	if len(statics) != 1 || statics[0].Key != "workshop" {
		t.Fatalf("statics = %v", statics)
	}
}

func TestSubscriptionPushesInvalidation(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("v1"))
	c.AddReference("d", "doug")

	var mu sync.Mutex
	var got [][2]string
	notified := make(chan struct{}, 8)
	c.OnInvalidate(func(doc, user string) {
		mu.Lock()
		got = append(got, [2]string{doc, user})
		mu.Unlock()
		notified <- struct{}{}
	})
	if err := c.Subscribe("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	// A write by another user must push a base-level invalidation.
	if err := c.Write("d", "doug", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-notified:
	case <-time.After(2 * time.Second):
		t.Fatal("no invalidation push received")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || got[0][0] != "d" || got[0][1] != "" {
		t.Fatalf("pushes = %v", got)
	}
}

// TestPushAppliedBeforeLaterResponse: a push shares the connection
// with responses, and the client applies it where it reads it, so a
// response the server wrote after the push is delivered only once the
// handler has returned — even a slow handler.
func TestPushAppliedBeforeLaterResponse(t *testing.T) {
	_, c, space := testServer(t)
	if err := c.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("d", "u"); err != nil {
		t.Fatal(err)
	}
	var applied atomic.Bool
	c.OnInvalidate(func(doc, user string) {
		time.Sleep(50 * time.Millisecond)
		applied.Store(true)
	})
	// The server-side write pushes before it returns, so the push is on
	// the wire ahead of the Stats response.
	if err := space.WriteDocument("d", "u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if !applied.Load() {
		t.Fatal("a response was delivered before the push was applied")
	}
}

func TestSubscriptionPersonalPropertyPush(t *testing.T) {
	_, c, space := testServer(t)
	c.CreateDocument("d", "eyal", []byte("v1"))
	notified := make(chan [2]string, 8)
	c.OnInvalidate(func(doc, user string) { notified <- [2]string{doc, user} })
	if err := c.Subscribe("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	// Personal property change on the subscribed reference.
	if err := c.Attach("d", "eyal", true, "uppercase"); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-notified:
		if p[0] != "d" || p[1] != "eyal" {
			t.Fatalf("push = %v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no personal-property push")
	}
	_ = space
}

// TestSubscribeBeforeCreateStillPushes: a subscription that failed
// because the document (or the reference) did not exist yet must leave
// nothing behind that makes the retry a no-op — the retry attaches, and
// the connection gets its pushes. Both ways of subscribing go through
// it: the bare op, and the flag a cache's first read of a key carries.
func TestSubscribeBeforeCreateStillPushes(t *testing.T) {
	for name, subscribe := range map[string]func(c *Client, doc, user string) error{
		"subscribe op": (*Client).Subscribe,
		"flagged read": func(c *Client, doc, user string) error {
			_, _, subscribed, err := c.ReadSubscribe(doc, user)
			if err == nil && !subscribed {
				err = errors.New("read served, notifiers not installed")
			}
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, c, _ := testServer(t)
			notified := make(chan [2]string, 8)
			c.OnInvalidate(func(doc, user string) { notified <- [2]string{doc, user} })
			wantPush := func(what, doc, user string) {
				t.Helper()
				select {
				case p := <-notified:
					if p != [2]string{doc, user} {
						t.Fatalf("%s: push = %v, want [%s %s]", what, p, doc, user)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("%s: no invalidation push received", what)
				}
			}

			if err := subscribe(c, "d", "eyal"); err == nil {
				t.Fatal("subscribing to a missing document succeeded")
			}
			if err := c.CreateDocument("d", "eyal", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := subscribe(c, "d", "eyal"); err != nil {
				t.Fatal(err)
			}
			if err := c.AddReference("d", "paul"); err != nil {
				t.Fatal(err)
			}
			if err := c.Write("d", "paul", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			wantPush("write after subscribe-before-create", "d", "")

			// The reference half: doug holds no reference yet.
			if err := subscribe(c, "d", "doug"); err == nil {
				t.Fatal("subscribing for a user without a reference succeeded")
			}
			if err := c.AddReference("d", "doug"); err != nil {
				t.Fatal(err)
			}
			if err := subscribe(c, "d", "doug"); err != nil {
				t.Fatal(err)
			}
			if err := c.Attach("d", "doug", true, "uppercase"); err != nil {
				t.Fatal(err)
			}
			wantPush("personal attach after subscribe-before-reference", "d", "doug")
		})
	}
}

// TestFlaggedReadServedWhenSubscriptionFails: a group member reads
// through the group's reference and holds none of their own, so there
// is nowhere to attach their reference notifier. The flagged read still
// answers, says the subscription is not in place, and is not refused on
// the retry; once the reference exists the same call installs it.
func TestFlaggedReadServedWhenSubscriptionFails(t *testing.T) {
	_, c, space := testServer(t)
	if err := c.CreateDocument("d", "staff", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	space.DefineGroup("staff", "doug")
	for i := 0; i < 2; i++ {
		data, _, subscribed, err := c.ReadSubscribe("d", "doug")
		if err != nil || string(data) != "v1" || subscribed {
			t.Fatalf("flagged read %d through the group reference = %q, subscribed %v, %v", i, data, subscribed, err)
		}
	}
	if err := c.AddReference("d", "doug"); err != nil {
		t.Fatal(err)
	}
	if data, _, subscribed, err := c.ReadSubscribe("d", "doug"); err != nil || string(data) != "v1" || !subscribed {
		t.Fatalf("flagged read with a reference = %q, subscribed %v, %v", data, subscribed, err)
	}
	// An unflagged read never reports on a subscription it did not ask for.
	if _, _, err := c.Read("d", "doug"); err != nil {
		t.Fatal(err)
	}
}

func TestForwardEventOverWire(t *testing.T) {
	_, c, space := testServer(t)
	c.CreateDocument("d", "eyal", []byte("x"))
	// Attach an audit trail server-side.
	if err := c.Attach("d", "", false, "audit-trail"); err != nil {
		t.Fatal(err)
	}
	if err := c.ForwardEvent("d", "eyal", "getInputStream"); err != nil {
		t.Fatal(err)
	}
	if err := c.ForwardEvent("d", "eyal", "bogusKind"); err == nil {
		t.Fatal("bogus event kind accepted")
	}
	_ = space
}

func TestDescribeOverWire(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("x"))
	c.Attach("d", "eyal", true, "uppercase")
	text, err := c.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"document d", "owner eyal", "uppercase"} {
		if !strings.Contains(text, want) {
			t.Fatalf("describe missing %q:\n%s", want, text)
		}
	}
	if _, err := c.Describe("ghost"); err == nil {
		t.Fatal("describe of missing doc succeeded")
	}
}

func TestFindOverWire(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("a", "u", []byte("1"))
	c.CreateDocument("b", "u", []byte("2"))
	c.AttachStatic("a", "", false, "tag", "keep")
	c.AttachStatic("b", "", false, "tag", "drop")
	matches, err := c.Find("u", "tag", "")
	if err != nil || len(matches) != 2 {
		t.Fatalf("matches = %v, %v", matches, err)
	}
	matches, err = c.Find("u", "tag", "keep")
	if err != nil || len(matches) != 1 || matches[0].Doc != "a" || matches[0].Value != "keep" || matches[0].Level != "universal" {
		t.Fatalf("filtered matches = %+v, %v", matches, err)
	}
	if matches, _ := c.Find("stranger", "tag", ""); len(matches) != 0 {
		t.Fatalf("stranger sees %v", matches)
	}
}

func TestStatsOverWire(t *testing.T) {
	_, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("x"))
	c.Read("d", "eyal")
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["requests"] < 2 || stats["connections"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, c, _ := testServer(t)
	c.CreateDocument("d", "eyal", []byte("shared"))
	addr := srv.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				data, _, err := cl.Read("d", "eyal")
				if err != nil || string(data) != "shared" {
					t.Errorf("read = %q, %v", data, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestClientClosedCalls(t *testing.T) {
	_, c, _ := testServer(t)
	c.Close()
	if _, _, err := c.Read("d", "u"); err == nil {
		t.Fatal("Read on closed client succeeded")
	}
}

func TestDisconnectDetachesNotifiers(t *testing.T) {
	srv, c, space := testServer(t)
	c.CreateDocument("d", "eyal", []byte("x"))
	if err := c.Subscribe("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	notified := func() int64 { _, n, _ := srv.Counters(); return n }
	if err := space.WriteDocument("d", "eyal", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := notified(); got != 1 {
		t.Fatalf("a write while subscribed pushed %d notifications, want 1", got)
	}
	c.Close()
	// The server notices the disconnect asynchronously; the connection
	// unregisters after its notifiers are unsubscribed.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, conns := srv.Counters(); conns == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := space.WriteDocument("d", "eyal", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got := notified(); got != 1 {
		t.Fatalf("a write after disconnect was pushed: %d notifications, want 1", got)
	}
}

// TestListingsShowOnlyUserProperties: the notifiers of a cached origin
// and of a subscribed connection listen on event registries and are not
// properties, so ListActives and Describe over the wire list exactly
// what users attached.
func TestListingsShowOnlyUserProperties(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	cache := core.New(space, core.Options{Name: "placelessd"})
	t.Cleanup(func() { cache.Close() })
	c := serveAndDial(t, NewCached(space, backing, cache))
	for _, step := range []error{
		c.CreateDocument("d", "eyal", []byte("hello")),
		c.AddReference("d", "paul"),
		c.Attach("d", "", false, "line-number"),
		c.Attach("d", "eyal", true, "uppercase"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	for _, u := range []string{"eyal", "paul"} {
		if _, _, subscribed, err := c.ReadSubscribe("d", u); err != nil || !subscribed {
			t.Fatalf("ReadSubscribe(d, %s): subscribed %v, %v", u, subscribed, err)
		}
	}
	for _, tc := range []struct {
		user     string
		personal bool
		want     []string
	}{
		{"", false, []string{"line-number"}},
		{"eyal", true, []string{"uppercase"}},
		{"paul", true, nil},
	} {
		got, err := c.ListActives("d", tc.user, tc.personal)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("ListActives(d, %q) = %q, want %q", tc.user, got, tc.want)
		}
	}
	desc, err := c.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(desc, "active: "); got != 2 || strings.Contains(desc, "notifier:") || strings.Contains(desc, "remote:") {
		t.Errorf("Describe lists %d actives, want the 2 users attached:\n%s", got, desc)
	}
}

func TestParsePropertySpecs(t *testing.T) {
	good := []string{
		"spell-correct", "spell-correct:5", "translate-fr", "uppercase:2",
		"rot13", "line-number", "summarize:3", "summarize:3:10",
		"watermark:eyal", "audit-trail", "versioning", "qos:250:50",
	}
	for _, spec := range good {
		if _, err := ParsePropertySpec(spec); err != nil {
			t.Errorf("ParsePropertySpec(%q) = %v", spec, err)
		}
	}
	bad := []string{
		"", "unknown", "summarize", "summarize:x", "summarize:0",
		"watermark", "watermark:", "qos", "qos:250", "qos:x:2",
		"qos:250:0.5", "spell-correct:notanumber", "uppercase:-1",
	}
	for _, spec := range bad {
		if _, err := ParsePropertySpec(spec); err == nil {
			t.Errorf("ParsePropertySpec(%q) accepted malformed spec", spec)
		}
	}
	if len(KnownPropertySpecs()) < 10 {
		t.Fatal("spec help list incomplete")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpStats.String() != "stats" {
		t.Fatal("Op.String broken")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Fatal("unknown op string")
	}
}

func TestServeAfterCloseRejected(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, nil)
	srv := New(space, repo.NewMem("b", clk, simnet.NewPath("p", 1)))
	srv.Close()
	if err := srv.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
	if err := errors.Unwrap(nil); err != nil {
		t.Fatal("impossible")
	}
}

// TestReadInto covers the caller-supplied-buffer read path: body
// decoded in place (returned slice aliases the buffer) and graceful
// fallback to a fresh allocation when the buffer is too small.
func TestReadInto(t *testing.T) {
	body := make([]byte, 24<<10)
	for i := range body {
		body[i] = byte(i * 31)
	}
	_, c, _ := testServer(t)
	if err := c.CreateDocument("blob", "u", body); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(body))
	got, _, err := c.ReadInto("blob", "u", buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch (%d bytes)", len(got))
	}
	if &got[0] != &buf[0] {
		t.Fatal("ReadInto did not decode into the caller's buffer")
	}
	// A too-small buffer must not be used (and must not corrupt the
	// result); the body arrives in a fresh allocation instead.
	small := make([]byte, 16)
	got, _, err = c.ReadInto("blob", "u", small)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("small buf: %d bytes, %v", len(got), err)
	}
	if &got[0] == &small[0] {
		t.Fatal("body aliased an undersized buffer")
	}
	// nil buffer behaves exactly like Read.
	got, _, err = c.ReadInto("blob", "u", nil)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("nil buf: %d bytes, %v", len(got), err)
	}
}

// TestReadIntoConcurrent hammers ReadInto from many goroutines with
// per-goroutine buffers over one pipelined connection — the
// BenchmarkWireReadInto64K workload shape — so the claim/deliver
// handoff runs under the race detector.
func TestReadIntoConcurrent(t *testing.T) {
	body := make([]byte, 8<<10)
	for i := range body {
		body[i] = byte(i ^ (i >> 7))
	}
	_, c, _ := testServer(t)
	if err := c.CreateDocument("blob", "u", body); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(body))
			for i := 0; i < 50; i++ {
				got, _, err := c.ReadInto("blob", "u", buf)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, body) {
					errc <- errors.New("body mismatch under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestReadIntoCloseDuringFlight closes the client while ReadInto calls
// are in flight: callers must unblock with a typed error and never
// race the decoder on their buffers (the claimed-call teardown path).
func TestReadIntoCloseDuringFlight(t *testing.T) {
	body := make([]byte, 64<<10)
	_, c, _ := testServer(t)
	if err := c.CreateDocument("blob", "u", body); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(body))
			for {
				if _, _, err := c.ReadInto("blob", "u", buf); err != nil {
					if !errors.Is(err, ErrClientClosed) && !errors.Is(err, ErrDisconnected) {
						t.Errorf("unexpected error: %v", err)
					}
					// Safe to touch the buffer now: the claimed-call
					// protocol guarantees the decoder is done with it.
					buf[0] = 1
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	c.Close()
	wg.Wait()
}

// TestRottedSegmentByteNeverReachesClient: an origin built the way
// placelessd -cache -store builds it holds a large document's bytes in
// its disk tier, and one payload byte of the segment file rots. A read
// returns the document's bytes: every body leaves the server from the
// bytes the cache returned, and the only way disk bytes reach the
// cache is a promote, which GetBlob verifies.
func TestRottedSegmentByteNeverReachesClient(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.New(space, core.Options{Name: "rot-test", Capacity: 8 << 20, Store: st})
	t.Cleanup(func() {
		cache.Close()
		st.Close()
	})
	c := serveAndDial(t, NewCached(space, backing, cache))

	body := make([]byte, 300<<10) // larger than one 256 KiB store batch
	for i := range body {
		body[i] = byte(i*7 + i>>9)
	}
	if err := c.CreateDocument("big", "eyal", body); err != nil {
		t.Fatal(err)
	}
	sg, err := st.PutBlob(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetBlob(sg); !ok { // writes the queued batch out
		t.Fatal("stored blob not served before the rot")
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("store files %v (%v), want one segment", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, body)
	if at < 0 {
		t.Fatal("segment does not hold the document's bytes")
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(at + len(body)/2)
	if _, err := f.WriteAt([]byte{raw[off] ^ 0x20}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, err := c.Read("big", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		for i := range got {
			if i < len(body) && got[i] != body[i] {
				t.Fatalf("read returned %d bytes with byte %d = %#x, want %#x: rotted disk bytes reached the client", len(got), i, got[i], body[i])
			}
		}
		t.Fatalf("read returned %d bytes, want the %d-byte document", len(got), len(body))
	}
	// The rot is real: the store's own verified read refuses the blob.
	if _, ok := st.GetBlob(sg); ok {
		t.Fatal("GetBlob served the rotted blob; the test did not rot it")
	}
}
