package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/store"
)

// journal persists the configuration plane of a document space — the
// documents, references, property attachments and static labels
// applied through the server — as records of the store's format
// (store.Log), so a restarted placelessd can rebuild the property graph
// by replay. Content bytes are not journaled: they live in the backing
// repository (use the file-system repository for durable content).
//
// Only operations expressible as standard property specs are
// journaled, which is exactly the set a remote client can apply. mu is
// held across applying a request and recording it, so the journal
// holds requests in the order they were applied.
type journal struct {
	mu  sync.Mutex
	log *store.Log
}

// journalEntry is the JSON payload of one journal record.
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

// journalOps names the journaled ops; every other op is data plane.
var journalOps = map[Op]string{
	OpCreateDocument: "create",
	OpAddReference:   "addref",
	OpAttach:         "attach",
	OpDetach:         "detach",
	OpAttachStatic:   "static",
}

// OpenJournal replays the configuration journal at path onto the
// server's space, creating the file if absent, and attaches it: from
// then on every configuration request is applied and recorded in one
// step. Call it once, before Serve; Close closes the journal.
//
// A torn final record — an append cut short by a crash — is truncated
// away and its length returned as torn. Any other record that fails its
// checks is a *store.CorruptError and the file is left as it was: it
// cannot be explained by a torn tail, so the journal is damaged (a
// JSON-lines journal from before records is refused the same way).
// Entries that fail because their state already exists (documents
// recreated over a persistent backing repository) are skipped; any
// other failure aborts, naming the record's offset. Returns the number
// of entries applied.
func (s *Server) OpenJournal(path string) (applied int, torn int64, err error) {
	log, torn, err := store.OpenLog(path, func(_ int64, payload []byte) error {
		ok, err := s.replay(payload)
		if ok {
			applied++
		}
		return err
	})
	if err != nil {
		return applied, 0, fmt.Errorf("server: journal: %w", err)
	}
	s.journal = &journal{log: log}
	return applied, torn, nil
}

// replay applies one journal entry, reporting whether it changed state.
func (s *Server) replay(payload []byte) (bool, error) {
	var e journalEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		return false, err
	}
	req := &Request{Doc: e.Doc, User: e.User, Personal: e.Personal, Property: e.Spec, Value: e.Value, Body: e.Content}
	known := false
	for op, name := range journalOps {
		if name == e.Op {
			req.Op, known = op, true
		}
	}
	if !known {
		return false, fmt.Errorf("unknown op %q", e.Op)
	}
	var err error
	stored := false
	if req.Op == OpCreateDocument {
		_, statErr := s.backing.Stat("/" + e.Doc)
		stored = statErr == nil
	}
	if stored {
		// A persistent backing repository may already hold newer
		// content than the journaled initial bytes; register the
		// document over them without rewriting them.
		_, err = s.space.CreateDocument(e.Doc, e.User, &property.RepoBitProvider{Repo: s.backing, Path: "/" + e.Doc})
	} else {
		err = s.apply(req).err
	}
	if errors.Is(err, docspace.ErrDuplicate) {
		return false, nil // expected when the backing repository survived the restart
	}
	return err == nil, err
}

// applyJournaled applies req. On a journaled server a configuration
// request is applied and recorded under the journal's lock, so replay
// meets requests in the order they were applied. Once a record has
// failed to be written, every configuration request answers that
// failure — the one whose record failed included, though it was
// applied — instead of being applied and then lost on restart.
func (s *Server) applyJournaled(req *Request) *Response {
	op, ok := journalOps[req.Op]
	j := s.journal
	if j == nil || !ok {
		return s.apply(req)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Err(); err != nil {
		return fail(err)
	}
	resp := s.apply(req)
	if resp.Err != "" {
		return resp
	}
	payload, err := json.Marshal(journalEntry{Op: op, Doc: req.Doc, User: req.User, Personal: req.Personal, Spec: req.Property, Value: req.Value, Content: req.Body})
	if err == nil {
		err = j.log.Append(payload)
	}
	if err != nil {
		return fail(err)
	}
	return resp
}
