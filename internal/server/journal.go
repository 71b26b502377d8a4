package server

import (
	"bytes"
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
// journaled, which is exactly the set a remote client can apply. A
// record's payload is the request as the wire carries it: the op byte,
// then the request layout (appendRequestFields, then the raw body). mu
// is held across applying a request and recording it, so the journal
// holds requests in the order they were applied.
type journal struct {
	mu  sync.Mutex
	log *store.Log
}

// journalOps is the set of journaled ops; every other op is data plane.
var journalOps = map[Op]bool{
	OpCreateDocument: true,
	OpAddReference:   true,
	OpAttach:         true,
	OpDetach:         true,
	OpAttachStatic:   true,
}

// journalRecord renders req as the payload of its journal record.
func journalRecord(req *Request) []byte {
	return append(appendRequestFields([]byte{byte(req.Op)}, req), req.Body...)
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
// JSON-lines journal from before records is refused the same way). A
// record that verifies but holds no journaled request — a JSON payload
// from before records held the request layout — aborts the open at its
// offset, the file left as it was. Entries that fail because their
// state already exists (documents recreated over a persistent backing
// repository) are skipped; any other failure aborts, naming the
// record's offset. Returns the number of entries applied.
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
	if len(payload) == 0 || !journalOps[Op(payload[0])] {
		return false, fmt.Errorf("unknown op in entry %q", payload[:min(len(payload), 1)])
	}
	req := &Request{Op: Op(payload[0])}
	if err := decodeRequestPayload(req, payload[1:]); err != nil {
		return false, err
	}
	var err error
	stored := false
	if req.Op == OpCreateDocument {
		_, statErr := s.backing.Stat("/" + req.Doc)
		stored = statErr == nil
	}
	if stored {
		// A persistent backing repository may already hold newer
		// content than the journaled initial bytes; register the
		// document over them without rewriting them.
		_, err = s.space.CreateDocument(req.Doc, req.User, &property.RepoBitProvider{Repo: s.backing, Path: "/" + req.Doc})
	} else {
		// The body aliases payload, which the scan reuses for the next
		// record; the repository keeps the slice it is given.
		req.Body = bytes.Clone(req.Body)
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
	j := s.journal
	if j == nil || !journalOps[req.Op] {
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
	if err := j.log.Append(journalRecord(req)); err != nil {
		return fail(err)
	}
	return resp
}
