package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

// journalRig boots a journaled server over a persistent FS backing.
func journalRig(t *testing.T, rootDir, journalPath string) (*Server, *Client, func()) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	fsRepo, err := repo.NewFS("fs", clk, simnet.NewPath("loop", 1), rootDir)
	if err != nil {
		t.Fatal(err)
	}
	space := docspace.New(clk, nil)
	srv := New(space, fsRepo)
	if _, _, err := srv.OpenJournal(journalPath); err != nil {
		t.Fatalf("open journal: %v", err)
	}

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
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() {
		client.Close()
		srv.Close()
		<-done
	}
	return srv, client, shutdown
}

// memServer returns an unserved server over an in-memory repository.
func memServer() *Server {
	clk := clock.NewVirtual(epoch)
	return New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
}

// reopen opens the journal at path on a fresh in-memory server, and
// closes it again if it opened.
func reopen(path string) (int, int64, error) {
	srv := memServer()
	applied, torn, err := srv.OpenJournal(path)
	if err == nil {
		err = srv.Close()
	}
	return applied, torn, err
}

// writeJournal writes each payload as one journal record, through the
// store's record encoder.
func writeJournal(t *testing.T, path string, payloads ...string) {
	t.Helper()
	l, _, err := store.OpenLog(path, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeRequests writes each request as one journal record.
func writeRequests(t *testing.T, path string, reqs ...*Request) {
	t.Helper()
	var payloads []string
	for _, req := range reqs {
		payloads = append(payloads, string(journalRecord(req)))
	}
	writeJournal(t, path, payloads...)
}

// journalEntries returns the requests a journal holds and the offset of
// each one's record.
func journalEntries(t *testing.T, path string) ([]*Request, []int64) {
	t.Helper()
	var entries []*Request
	var offsets []int64
	l, _, err := store.OpenLog(path, func(off int64, payload []byte) error {
		if len(payload) == 0 {
			return errors.New("empty record")
		}
		req := &Request{Op: Op(payload[0])}
		err := decodeRequestPayload(req, payload[1:])
		entries, offsets = append(entries, req), append(offsets, off)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return entries, offsets
}

// configScript is a configuration plane touching every journaled op.
// The sweeps below name their subtests by byte offset; the names and
// values are sized so the six records end at offsets 96, 165, 275,
// 363, 467 and 571, and those names stay one set of cuts.
func configScript() []*Request {
	const doc, owner = "notes/hotos-1999/caching.draft", "alice.liddell@parc.xerox.com"
	return []*Request{
		{Op: OpCreateDocument, Doc: doc, User: owner, Body: []byte("teh\n")},
		{Op: OpAddReference, Doc: doc, User: "carol"},
		{Op: OpAttach, Doc: doc, User: owner, Personal: true, Property: "spell-correct:1500"},
		{Op: OpAttachStatic, Doc: doc, Property: "status", Value: "draft-for-comments"},
		{Op: OpAttach, Doc: doc, User: owner, Personal: true, Property: "translate-fr"},
		{Op: OpDetach, Doc: doc, User: owner, Personal: true, Property: "translate-fr"},
	}
}

// journalImage journals script through a server and returns the
// journal's bytes and the offset just past each request's record.
func journalImage(t testing.TB, script []*Request) ([]byte, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j")
	srv := memServer()
	if _, _, err := srv.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	var ends []int
	for _, req := range script {
		if resp := srv.applyJournaled(req); resp.Err != "" {
			t.Fatalf("%v %s: %s", req.Op, req.Doc, resp.Err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(info.Size()))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, ends
}

// readFile returns path's bytes.
func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJournalRestartRebuildsConfiguration(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(t.TempDir(), "config.journal")

	// First server lifetime: build configuration and write content.
	_, c1, shutdown1 := journalRig(t, root, journal)
	if err := c1.CreateDocument("memo", "alice", []byte("teh first draft")); err != nil {
		t.Fatal(err)
	}
	if err := c1.AddReference("memo", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Attach("memo", "alice", true, "spell-correct"); err != nil {
		t.Fatal(err)
	}
	if err := c1.AttachStatic("memo", "", false, "status", "draft"); err != nil {
		t.Fatal(err)
	}
	// Content updated after creation: the restart must keep this, not
	// the journaled initial bytes.
	if err := c1.Write("memo", "bob", []byte("teh final draft")); err != nil {
		t.Fatal(err)
	}
	shutdown1()

	// Second lifetime over the same root + journal.
	_, c2, shutdown2 := journalRig(t, root, journal)
	defer shutdown2()

	alice, _, err := c2.Read("memo", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if string(alice) != "the final draft" {
		t.Fatalf("alice reads %q, want post-restart content with spell correction", alice)
	}
	bob, _, err := c2.Read("memo", "bob")
	if err != nil || string(bob) != "teh final draft" {
		t.Fatalf("bob reads %q, %v", bob, err)
	}
	names, err := c2.ListActives("memo", "alice", true)
	if err != nil || len(names) != 1 || names[0] != "spell-correct" {
		t.Fatalf("actives = %v, %v", names, err)
	}
}

func TestJournalDetachReplays(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(t.TempDir(), "j")
	_, c1, shutdown1 := journalRig(t, root, journal)
	c1.CreateDocument("d", "u", []byte("x"))
	c1.Attach("d", "u", true, "uppercase")
	c1.Detach("d", "u", true, "uppercase")
	shutdown1()

	_, c2, shutdown2 := journalRig(t, root, journal)
	defer shutdown2()
	names, err := c2.ListActives("d", "u", true)
	if err != nil || len(names) != 0 {
		t.Fatalf("actives after replayed detach = %v, %v", names, err)
	}
}

func TestReplayMissingJournalIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent")
	srv := memServer()
	n, torn, err := srv.OpenJournal(path)
	if err != nil || n != 0 || torn != 0 {
		t.Fatalf("open = %d, %d, %v", n, torn, err)
	}
	srv.Close()
	if b := readFile(t, path); len(b) != 0 {
		t.Fatalf("a new journal holds %d bytes", len(b))
	}
}

// TestReplayCorruptJournalFails: a record that verifies but holds no
// request this server can apply aborts the open, naming its offset,
// and leaves the file as it was. Such records are a JSON payload from
// before records held the request layout, an op that is not journaled,
// an empty payload and a request cut inside its fields.
func TestReplayCorruptJournalFails(t *testing.T) {
	create := journalRecord(&Request{Op: OpCreateDocument, Doc: "d", User: "u", Body: []byte("x")})
	for _, c := range []struct{ payload, want string }{
		{`{"op":"create","doc":"d","user":"u","content":"eA=="}`, "unknown op"},
		{string(journalRecord(&Request{Op: OpRead, Doc: "d", User: "u"})), "unknown op"},
		{"", "unknown op"},
		{string(create[:4]), "truncated string"},
	} {
		path := filepath.Join(t.TempDir(), "bad")
		writeJournal(t, path, c.payload)
		before := readFile(t, path)
		if _, _, err := reopen(path); err == nil || !strings.Contains(err.Error(), "record at offset 0: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("replay of %q: err = %v, want %q at offset 0", c.payload, err, c.want)
		}
		if !bytes.Equal(readFile(t, path), before) {
			t.Errorf("replay of %q changed the journal", c.payload)
		}
	}
}

// keepingRepo is a repository whose Store keeps the slice it is given.
type keepingRepo struct {
	repo.Repository
	kept map[string][]byte
}

func (r *keepingRepo) Store(path string, data []byte) error {
	r.kept[path] = data
	return r.Repository.Store(path, data)
}

// TestReplayOwnsCreateBodies: replay hands the repository a body of its
// own for each create, not a window into the scan's buffer, which the
// next record overwrites.
func TestReplayOwnsCreateBodies(t *testing.T) {
	bodies := map[string]string{"long": strings.Repeat("the longer body ", 8), "short": "short body"}
	path := filepath.Join(t.TempDir(), "j")
	writeRequests(t, path,
		&Request{Op: OpCreateDocument, Doc: "long", User: "u", Body: []byte(bodies["long"])},
		&Request{Op: OpCreateDocument, Doc: "short", User: "u", Body: []byte(bodies["short"])})
	clk := clock.NewVirtual(epoch)
	backing := &keepingRepo{Repository: repo.NewMem("m", clk, simnet.NewPath("p", 1)), kept: map[string][]byte{}}
	srv := New(docspace.New(clk, nil), backing)
	if n, _, err := srv.OpenJournal(path); err != nil || n != 2 {
		t.Fatalf("open = %d, %v; want 2 applied", n, err)
	}
	defer srv.Close()
	for doc, body := range bodies {
		if got := string(backing.kept["/"+doc]); got != body {
			t.Errorf("%s holds %q after replay, want %q", doc, got, body)
		}
	}
}

// TestReplaySkipsOnlyDuplicateState: replay passes over an entry whose
// state already exists (docspace.ErrDuplicate) and over nothing else,
// whatever words the failure's text happens to contain — here a
// document and a property spec that are named "duplicate…".
func TestReplaySkipsOnlyDuplicateState(t *testing.T) {
	create := &Request{Op: OpCreateDocument, Doc: "d", User: "amy", Body: []byte("x")}
	for _, entries := range [][]*Request{
		{{Op: OpAddReference, Doc: "duplicate-notes", User: "bob"}},
		{{Op: OpDetach, Doc: "duplicate-notes", User: "bob", Property: "x"}},
		{create, {Op: OpAttach, Doc: "d", Property: "duplicate-finder"}},
	} {
		path := filepath.Join(t.TempDir(), "j")
		writeRequests(t, path, entries...)
		_, offsets := journalEntries(t, path)
		at := fmt.Sprintf("offset %d", offsets[len(offsets)-1])
		if n, _, err := reopen(path); err == nil || !strings.Contains(err.Error(), at) {
			t.Fatalf("replay of %+v = %d, %v; want an error naming %s", entries, n, err, at)
		}
	}
	// The same create twice: the second is existing state, skipped.
	path := filepath.Join(t.TempDir(), "j")
	writeRequests(t, path, create, create)
	if n, _, err := reopen(path); err != nil || n != 1 {
		t.Fatalf("replay of a repeated create = %d, %v; want 1 applied", n, err)
	}
}

func TestJournalSkipsDataPlane(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(t.TempDir(), "j")
	_, c, shutdown := journalRig(t, root, journal)
	c.CreateDocument("d", "u", []byte("x"))
	for i := 0; i < 5; i++ {
		c.Read("d", "u")
	}
	c.Write("d", "u", []byte("y"))
	shutdown()

	entries, _ := journalEntries(t, journal)
	if len(entries) != 1 || entries[0].Op != OpCreateDocument {
		t.Fatalf("journal holds %+v, want only the create", entries)
	}
}

// TestJournalSurvivesCrashMidAppend drives the torn-tail contract end
// to end: a journal with a torn final record boots a working server
// that keeps journaling, and the next restart sees both the old
// entries and the new ones.
func TestJournalSurvivesCrashMidAppend(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(t.TempDir(), "j")
	_, c1, shutdown1 := journalRig(t, root, journal)
	if err := c1.CreateDocument("d", "u", []byte("x")); err != nil {
		t.Fatal(err)
	}
	shutdown1()

	// Tear the tail: append half of a record.
	img, ends := journalImage(t, []*Request{
		{Op: OpCreateDocument, Doc: "d", User: "u"},
		{Op: OpAttachStatic, Doc: "d", User: "u", Property: "k", Value: "v"},
	})
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(img[ends[0] : ends[0]+(ends[1]-ends[0])/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, c2, shutdown2 := journalRig(t, root, journal)
	if err := c2.AttachStatic("d", "u", false, "author", "eyal"); err != nil {
		t.Fatal(err)
	}
	shutdown2()

	// Third boot: the second truncated the fragment before appending,
	// so replay recovers the create and the static attach it recorded.
	srv3, _, shutdown3 := journalRig(t, root, journal)
	defer shutdown3()
	if v, ok := staticValue(t, srv3, "d", "u", "author"); !ok || v != "eyal" {
		t.Fatalf("static lost across torn-tail restart: %q, %v", v, ok)
	}
}

// TestJournalCutAtEveryOffset is the power-cut-at-every-offset sweep
// over a journal image: cut after N bytes for every N, the journal
// opens without error, replays exactly the records that were whole,
// truncates the rest, takes the next append, and reopens with nothing
// torn.
func TestJournalCutAtEveryOffset(t *testing.T) {
	img, ends := journalImage(t, configScript())
	for n := 0; n <= len(img); n++ {
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, img[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			want, durable := 0, 0
			for want < len(ends) && ends[want] <= n {
				durable = ends[want]
				want++
			}
			srv := memServer()
			applied, torn, err := srv.OpenJournal(path)
			if err != nil || applied != want || torn != int64(n-durable) {
				t.Fatalf("open = %d applied, %d torn, %v; want %d, %d, nil", applied, torn, err, want, n-durable)
			}
			if got := readFile(t, path); !bytes.Equal(got, img[:durable]) {
				t.Fatalf("journal is %d bytes after open, want its %d whole records", len(got), durable)
			}
			if resp := srv.applyJournaled(&Request{Op: OpCreateDocument, Doc: "post", User: "u", Body: []byte("p")}); resp.Err != "" {
				t.Fatalf("append after the repair: %s", resp.Err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			applied, torn, err = reopen(path)
			if err != nil || applied != want+1 || torn != 0 {
				t.Fatalf("second open = %d applied, %d torn, %v; want %d, 0, nil", applied, torn, err, want+1)
			}
		})
	}
}

// TestJournalFlipEveryByte flips one byte at every offset of every
// record's magic, signature, CRC and payload — the last record's
// included — and each time the open refuses with a *store.CorruptError
// naming the journal and the flipped record's offset, and leaves the
// file byte-identical. The length is left out: a length that grows
// past the end of the file reads as a torn append, by the rule.
func TestJournalFlipEveryByte(t *testing.T) {
	img, ends := journalImage(t, configScript())
	start := 0
	for i, end := range ends {
		for p := start; p < end; p++ {
			if p-start >= 4 && p-start < 8 {
				continue
			}
			t.Run(fmt.Sprintf("flip=%d", p), func(t *testing.T) {
				bad := append([]byte(nil), img...)
				bad[p] ^= 0x40
				path := filepath.Join(t.TempDir(), "j")
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				applied, _, err := reopen(path)
				var ce *store.CorruptError
				if !errors.As(err, &ce) || ce.Path != path || ce.Offset != int64(start) || applied != i {
					t.Fatalf("open = %d applied, %v; want %d and a CorruptError at offset %d", applied, err, i, start)
				}
				if !bytes.Equal(readFile(t, path), bad) {
					t.Fatal("a refused journal was changed")
				}
			})
		}
		start = end
	}
}

// TestJournalRefusesForeignFiles: bytes that are not journal records
// from the first one on — a journal written as JSON lines, or a store
// segment — are refused at offset 0 and left as they were.
func TestJournalRefusesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutBlob([]byte("a blob, not a journal entry")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.plseg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	for name, contents := range map[string][]byte{
		"json-lines": []byte(`{"op":"create","doc":"d","user":"u","content":"eA=="}` + "\n" + `{"op":"addref","doc":"d","user":"v"}` + "\n"),
		"segment":    readFile(t, segs[0]),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *store.CorruptError
			if _, _, err := reopen(path); !errors.As(err, &ce) || ce.Offset != 0 {
				t.Fatalf("open = %v, want a CorruptError at offset 0", err)
			}
			if !bytes.Equal(readFile(t, path), contents) {
				t.Fatal("a refused journal was changed")
			}
		})
	}
}

// TestJournalFailedAppendIsSticky cuts one append short at every byte
// — the bytes before the cut reach the file and the write fails — and
// sends more configuration after it: the request whose record failed
// and every one after it answer store.ErrWriteFailed, nothing after the
// failure is applied or written, the data plane still serves, and a
// reopen replays exactly the records before the cut and drops the cut
// one's bytes.
func TestJournalFailedAppendIsSticky(t *testing.T) {
	script := configScript()
	img, ends := journalImage(t, script)
	last := len(script) - 1
	before, rec := img[:ends[last-1]], img[ends[last-1]:]
	doc, owner, reader := script[0].Doc, script[0].User, script[1].User
	later := []*Request{
		script[last],
		{Op: OpCreateDocument, Doc: "later", User: "u", Body: []byte("l")},
		{Op: OpAttach, Doc: doc, User: owner, Personal: true, Property: "uppercase"},
	}
	for k := 0; k < len(rec); k++ {
		t.Run(fmt.Sprintf("cut=%d", k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			srv := memServer()
			if _, _, err := srv.OpenJournal(path); err != nil {
				t.Fatal(err)
			}
			for _, req := range script[:last] {
				if resp := srv.applyJournaled(req); resp.Err != "" {
					t.Fatal(resp.Err)
				}
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rec[:k]); err != nil {
				t.Fatal(err)
			}
			f.Close()
			srv.journal.log.Close() // the journal's next write fails

			for _, req := range later {
				if resp := srv.applyJournaled(req); !errors.Is(resp.err, store.ErrWriteFailed) {
					t.Fatalf("%v %s after a failed append = %q, want store.ErrWriteFailed", req.Op, req.Doc, resp.Err)
				}
			}
			if resp := srv.apply(&Request{Op: OpRead, Doc: "later", User: "u"}); resp.Err == "" {
				t.Fatal("a create refused after the failure was applied")
			}
			if resp := srv.apply(&Request{Op: OpRead, Doc: doc, User: reader}); resp.Err != "" {
				t.Fatalf("read after a failed append: %s", resp.Err)
			}
			if got := readFile(t, path); !bytes.Equal(got, append(before[:len(before):len(before)], rec[:k]...)) {
				t.Fatal("something was written after the failed append")
			}

			applied, torn, err := reopen(path)
			if err != nil || applied != last || torn != int64(k) {
				t.Fatalf("reopen = %d applied, %d torn, %v; want %d, %d, nil", applied, torn, err, last, k)
			}
		})
	}
}

// TestJournalOrderMatchesApplyOrder races two clients, one attaching
// and one detaching the same personal property, for many rounds. The
// journal must hold their requests in the order the space applied
// them, or replay meets a detach of a property not attached and the
// origin does not boot; replayed, it must rebuild the live state.
func TestJournalOrderMatchesApplyOrder(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(t.TempDir(), "j")
	srv, a, shutdown := journalRig(t, root, journal)
	if err := a.CreateDocument("d", "u", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.Attach("d", "u", true, "uppercase")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			b.Detach("d", "u", true, "uppercase")
		}
	}()
	wg.Wait()
	live, err := a.ListActives("d", "u", true)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	shutdown()

	_, c, shutdown2 := journalRig(t, root, journal)
	defer shutdown2()
	replayed, err := c.ListActives("d", "u", true)
	if err != nil || fmt.Sprint(replayed) != fmt.Sprint(live) {
		t.Fatalf("replayed actives %v, %v; live %v", replayed, err, live)
	}
}

// tornPrefix reports whether rest is a strict prefix of a journal
// record: part of its magic or header, or a header whose length runs
// past rest.
func tornPrefix(rest []byte) bool {
	const header = 4 + 4 + sig.Size + 4
	magic := []byte("PLJN")
	if len(rest) < len(magic) {
		return bytes.HasPrefix(magic, rest)
	}
	if !bytes.Equal(rest[:4], magic) {
		return false
	}
	return len(rest) < header || int(binary.LittleEndian.Uint32(rest[4:8])) > len(rest)-header
}

// FuzzJournalOpen hands OpenJournal adversarial files — a valid image
// with a fuzzed tail, a fuzzed prefix alone, and a valid image with one
// byte mutated — and holds it to the torn-tail rule: it never panics;
// it either opens, having cut the file only where the rest was a strict
// prefix of a record, or returns an error and leaves the file as it
// was — a *store.CorruptError only where the rest is no such prefix.
func FuzzJournalOpen(f *testing.F) {
	img, ends := journalImage(f, configScript())
	f.Add([]byte(nil), 0)
	f.Add(img, len(img))
	f.Add(img[:len(img)-3], 5)
	f.Add([]byte("PLJ"), 2)
	f.Add([]byte("PLSG garbage that is not a record"), ends[len(ends)-2]+7) // the last length grown past the end
	f.Add([]byte(`{"op":"create","doc":"d"}`+"\n"), len(img)-3)
	f.Add(img[:ends[0]], ends[0]-1) // one record, its body's last byte mutated
	f.Fuzz(func(t *testing.T, tail []byte, mutate int) {
		mutated := append([]byte(nil), img...)
		if mutate < 0 {
			mutate = -mutate
		}
		mutated[mutate%len(mutated)] ^= 0x40
		for name, contents := range map[string][]byte{
			"raw":        tail,
			"valid+tail": append(append([]byte(nil), img...), tail...),
			"mutated":    mutated,
		} {
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			_, torn, err := reopen(path)
			got := readFile(t, path)
			var ce *store.CorruptError
			switch {
			case err != nil && !bytes.Equal(got, contents):
				t.Fatalf("%s: open failed (%v) and changed the file", name, err)
			case errors.As(err, &ce) && tornPrefix(contents[ce.Offset:]):
				t.Fatalf("%s: open refused a torn tail as corrupt: %v", name, err)
			case err == nil && (int64(len(got))+torn != int64(len(contents)) || !bytes.Equal(got, contents[:len(got)])):
				t.Fatalf("%s: open left %d bytes of %d, reporting %d torn", name, len(got), len(contents), torn)
			case err == nil && torn > 0 && !tornPrefix(contents[len(got):]):
				t.Fatalf("%s: open cut %d bytes that are not a strict prefix of a record", name, torn)
			}
		}
	})
}

// staticValue looks up a universal-level static label on srv's space.
func staticValue(t *testing.T, srv *Server, doc, user, key string) (string, bool) {
	t.Helper()
	statics, err := srv.space.Statics(doc, user, docspace.Universal)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range statics {
		if s.Key == key {
			return s.Value, true
		}
	}
	return "", false
}
