package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"placeless/internal/docspace"
	"placeless/internal/property"
)

// Journal persists the configuration plane of a document space — the
// documents, references, groups, property attachments, and static
// labels applied through the server — as JSON lines, so a restarted
// placelessd can rebuild the property graph by replay. Content bytes
// are not journaled: they live in the backing repository (use the
// file-system repository for durable content).
//
// Only operations expressible as standard property specs are
// journaled, which is exactly the set a remote client can apply.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	c    io.Closer
	path string
}

// journalEntry is one configuration operation.
type journalEntry struct {
	// Op is the operation name: create, addref, attach, detach,
	// static.
	Op string `json:"op"`
	// Doc and User identify the target.
	Doc  string `json:"doc"`
	User string `json:"user,omitempty"`
	// Personal selects the reference level for property ops.
	Personal bool `json:"personal,omitempty"`
	// Spec is the property spec (attach), property name (detach), or
	// static key (static).
	Spec string `json:"spec,omitempty"`
	// Value is the static property value.
	Value string `json:"value,omitempty"`
	// Content is the document's initial content (create only),
	// base64-encoded by encoding/json.
	Content []byte `json:"content,omitempty"`
}

// OpenJournal opens (creating if absent) a journal file for appending.
// A torn final line — the residue of a crash mid-append — is truncated
// away first, so a new record can never be glued onto the fragment and
// turn a recoverable torn tail into a terminated corrupt line that
// poisons the next replay. Same recovery contract as the disk tier's
// active segment.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := truncateTornTail(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{w: f, c: f, path: path}, nil
}

// truncateTornTail trims f past its last newline-terminated byte and
// returns the resulting size.
func truncateTornTail(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	if size == 0 {
		return 0, nil
	}
	// Walk back from the end looking for the last '\n'; journal
	// records are small, so read a bounded window at a time.
	const window = 64 << 10
	end := size
	buf := make([]byte, window)
	for end > 0 {
		n := int64(window)
		if n > end {
			n = end
		}
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if end == size {
		return size, nil
	}
	if err := f.Truncate(end); err != nil {
		return 0, err
	}
	return end, nil
}

// Path returns the journal's file path ("" for in-memory journals).
func (j *Journal) Path() string { return j.path }

// record appends one entry.
func (j *Journal) record(e journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = j.w.Write(data)
	return err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c == nil {
		return nil
	}
	err := j.c.Close()
	j.c = nil
	return err
}

// SetJournal makes the server record configuration operations (create,
// addref, attach, detach, static) to j. Call before Serve (requests
// read it without a lock); replay any existing journal first.
func (s *Server) SetJournal(j *Journal) { s.journal = j }

// journalRequest records a handled configuration request. Data-plane
// ops (read/write/subscribe/forward/stats) are not journaled.
func (s *Server) journalRequest(req *Request) {
	j := s.journal
	if j == nil {
		return
	}
	var e journalEntry
	switch req.Op {
	case OpCreateDocument:
		e = journalEntry{Op: "create", Doc: req.Doc, User: req.User, Content: req.Body}
	case OpAddReference:
		e = journalEntry{Op: "addref", Doc: req.Doc, User: req.User}
	case OpAttach:
		e = journalEntry{Op: "attach", Doc: req.Doc, User: req.User, Personal: req.Personal, Spec: req.Property}
	case OpDetach:
		e = journalEntry{Op: "detach", Doc: req.Doc, User: req.User, Personal: req.Personal, Spec: req.Property}
	case OpAttachStatic:
		e = journalEntry{Op: "static", Doc: req.Doc, User: req.User, Personal: req.Personal, Spec: req.Property, Value: req.Value}
	default:
		return
	}
	_ = j.record(e) // journaling failures must not fail requests
}

// ReplayJournal re-applies a journal file to the server's space,
// rebuilding the configuration plane after a restart. Entries that
// fail because the state already exists (e.g. documents recreated over
// a persistent backing repository) are skipped; other errors abort.
//
// A final line left unterminated by a crash mid-append (torn write) is
// not an error: replay stops cleanly at the last complete entry, the
// same recovery contract as the disk tier's segments. A corrupt line
// that *is* newline-terminated still aborts — it cannot be explained
// by a torn tail, so the journal is genuinely damaged.
//
// Returns the number of applied entries.
func (s *Server) ReplayJournal(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // nothing to replay
		}
		return 0, err
	}
	defer f.Close()

	applied := 0
	r := bufio.NewReaderSize(f, 1<<20)
	line := 0
	for {
		text, rerr := r.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return applied, rerr
		}
		terminated := strings.HasSuffix(text, "\n")
		raw := []byte(strings.TrimSuffix(text, "\n"))
		if len(raw) == 0 {
			if rerr == io.EOF {
				return applied, nil
			}
			continue
		}
		line++
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			if !terminated {
				// The file ends mid-record: the process died between
				// writing part of the line and its newline. Everything
				// before this point replayed; the torn tail is dropped.
				return applied, nil
			}
			return applied, fmt.Errorf("server: journal %s line %d: %w", path, line, err)
		}
		req := &Request{Doc: e.Doc, User: e.User, Personal: e.Personal}
		switch e.Op {
		case "create":
			req.Op = OpCreateDocument
			req.Body = e.Content
			// A persistent backing repository may already hold newer
			// content than the journaled initial bytes; registering
			// the existing content must not clobber it.
			if _, err := s.backing.Stat("/" + e.Doc); err == nil {
				resp := s.registerExisting(e.Doc, e.User)
				if resp.Err != "" && !errors.Is(resp.err, docspace.ErrDuplicate) {
					return applied, fmt.Errorf("server: journal %s line %d: %s", path, line, resp.Err)
				}
				if resp.Err == "" {
					applied++
				}
				continue
			}
		case "addref":
			req.Op = OpAddReference
		case "attach":
			req.Op = OpAttach
			req.Property = e.Spec
		case "detach":
			req.Op = OpDetach
			req.Property = e.Spec
		case "static":
			req.Op = OpAttachStatic
			req.Property = e.Spec
			req.Value = e.Value
		default:
			return applied, fmt.Errorf("server: journal %s line %d: unknown op %q", path, line, e.Op)
		}
		resp := s.apply(req)
		if resp.Err != "" {
			// Duplicate state is expected when the backing
			// repository survived the restart.
			if errors.Is(resp.err, docspace.ErrDuplicate) {
				continue
			}
			return applied, fmt.Errorf("server: journal %s line %d: %s", path, line, resp.Err)
		}
		applied++
		if rerr == io.EOF {
			return applied, nil
		}
	}
}

// registerExisting registers a document whose content already lives in
// the backing repository, without rewriting the bytes.
func (s *Server) registerExisting(doc, owner string) *Response {
	bits := &property.RepoBitProvider{Repo: s.backing, Path: "/" + doc}
	if _, err := s.space.CreateDocument(doc, owner, bits); err != nil {
		return fail(err)
	}
	return &Response{}
}
