package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
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
	if _, err := srv.ReplayJournal(journalPath); err != nil {
		t.Fatalf("replay: %v", err)
	}
	j, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetJournal(j)

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
		j.Close()
	}
	return srv, client, shutdown
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
	clk := clock.NewVirtual(epoch)
	srv := New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
	n, err := srv.ReplayJournal(filepath.Join(t.TempDir(), "absent"))
	if err != nil || n != 0 {
		t.Fatalf("replay = %d, %v", n, err)
	}
}

func TestReplayCorruptJournalFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	os.WriteFile(path, []byte("{not json\n"), 0o644)
	clk := clock.NewVirtual(epoch)
	srv := New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
	if _, err := srv.ReplayJournal(path); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v", err)
	}
	os.WriteFile(path, []byte(`{"op":"martian","doc":"d"}`+"\n"), 0o644)
	if _, err := srv.ReplayJournal(path); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v", err)
	}
}

// TestReplaySkipsOnlyDuplicateState: replay passes over an entry whose
// state already exists (docspace.ErrDuplicate) and over nothing else,
// whatever words the failure's text happens to contain — here a
// document and a property spec that are named "duplicate…".
func TestReplaySkipsOnlyDuplicateState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	clk := clock.NewVirtual(epoch)
	for _, entry := range []string{
		`{"op":"addref","doc":"duplicate-notes","user":"bob"}`,
		`{"op":"detach","doc":"duplicate-notes","user":"bob","spec":"x"}`,
		`{"op":"create","doc":"d","user":"amy","content":"eA=="}` + "\n" +
			`{"op":"attach","doc":"d","spec":"duplicate-finder"}`,
	} {
		os.WriteFile(path, []byte(entry+"\n"), 0o644)
		srv := New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
		line := strings.Count(entry, "\n") + 1
		if n, err := srv.ReplayJournal(path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d", line)) {
			t.Fatalf("replay of %s = %d, %v; want an error naming line %d", entry, n, err, line)
		}
	}
	// The same create twice: the second is existing state, skipped.
	os.WriteFile(path, []byte(strings.Repeat(`{"op":"create","doc":"d","user":"amy","content":"eA=="}`+"\n", 2)), 0o644)
	srv := New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
	if n, err := srv.ReplayJournal(path); err != nil || n != 1 {
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

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 1 {
		t.Fatalf("journal has %d entries, want only the create:\n%s", lines, data)
	}
	if !strings.Contains(string(data), `"op":"create"`) {
		t.Fatalf("journal = %s", data)
	}
}

// TestReplayTornFinalLineStopsCleanly: a crash between writing part of
// a journal line and its newline must not poison the journal — replay
// applies every complete entry and drops the torn tail, at every
// possible truncation point inside the final record.
func TestReplayTornFinalLineStopsCleanly(t *testing.T) {
	line1 := `{"op":"create","doc":"d","user":"u","content":"eA=="}` + "\n"
	line2 := `{"op":"static","doc":"d","user":"u","spec":"k","value":"v"}` + "\n"
	full := line1 + line2

	replay := func(content string) (int, error, *Server) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		clk := clock.NewVirtual(epoch)
		srv := New(docspace.New(clk, nil), repo.NewMem("m", clk, simnet.NewPath("p", 1)))
		n, err := srv.ReplayJournal(path)
		return n, err, srv
	}

	// Cut the file everywhere inside the second record, newline
	// excluded: all such tails are torn writes.
	for cut := len(line1) + 1; cut < len(full)-1; cut++ {
		n, err, _ := replay(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: replay error on torn tail: %v", cut, err)
		}
		if n != 1 {
			t.Fatalf("cut %d: applied %d entries, want 1", cut, n)
		}
	}

	// A complete final record merely missing its newline is not torn —
	// the JSON parses, so it applies.
	n, err, srv := replay(full[:len(full)-1])
	if err != nil || n != 2 {
		t.Fatalf("newline-less complete tail: applied %d, err %v; want 2, nil", n, err)
	}
	if v, ok := staticValue(t, srv, "d", "u", "k"); !ok || v != "v" {
		t.Fatalf("static from final line not applied: %q, %v", v, ok)
	}

	// An interior corrupt line is terminated, so it cannot be a torn
	// tail: replay must still refuse the journal.
	if _, err, _ := replay(line1[:len(line1)-10] + "\n" + line2); err == nil {
		t.Fatal("terminated corrupt interior line replayed without error")
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

	// Tear the tail: append half of a record with no newline.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"static","doc":"d","us`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, c2, shutdown2 := journalRig(t, root, journal)
	if err := c2.AttachStatic("d", "u", false, "author", "eyal"); err != nil {
		t.Fatal(err)
	}
	shutdown2()

	// Third boot: the torn fragment is mid-file now (the new append
	// started after it). Replay must still recover the create and the
	// static attach recorded by the second incarnation.
	srv3, _, shutdown3 := journalRig(t, root, journal)
	defer shutdown3()
	if v, ok := staticValue(t, srv3, "d", "u", "author"); !ok || v != "eyal" {
		t.Fatalf("static lost across torn-tail restart: %q, %v", v, ok)
	}
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
