package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/store"
)

// serverWriteTimeout bounds every server→client frame write, so one
// wedged client (accepted socket, never drained) cannot stall the
// notifier callbacks that push invalidations from inside the space's
// event dispatch.
const serverWriteTimeout = 10 * time.Second

// Server exposes one document space over TCP.
type Server struct {
	space   *docspace.Space
	backing repo.Repository
	cache   *core.Cache // optional server-side cache for reads; fixed by NewCached

	// Set once before Serve (SetLinkCost, OpenJournal) and read without
	// a lock from then on: Serve's goroutines start after the setters
	// return.
	linkCost time.Duration
	journal  *journal

	mu     sync.Mutex
	ln     net.Listener   // first listener (Addr); see lns for the full set
	lns    []net.Listener // every listener Serve was handed (cluster nodes share one server)
	conns  map[*serverConn]bool
	served sync.WaitGroup // one per accepted connection, until its handlers and teardown are done
	closed bool

	requests  atomic.Int64 // requests handled
	notifies  atomic.Int64 // invalidations pushed
	bytesSent atomic.Int64 // bytes written to client sockets
	bytesRecv atomic.Int64 // bytes read from client sockets

	writeHist atomic.Pointer[obs.Histogram] // optional OpWrite latency sink
}

// New returns a server for space. backing is the repository used to
// store content of documents created via OpCreateDocument.
func New(space *docspace.Space, backing repo.Repository) *Server {
	return &Server{space: space, backing: backing, conns: make(map[*serverConn]bool)}
}

// NewCached returns a server whose reads are served through a
// server-side content cache — the second cache placement the paper's
// prototype explored ("caches co-located with the Placeless server and
// on the machine where applications are run"). Writes and property
// operations go straight to the space; the cache's own notifiers keep
// it consistent.
func NewCached(space *docspace.Space, backing repo.Repository, cache *core.Cache) *Server {
	s := New(space, backing)
	s.cache = cache
	return s
}

// serverConn is one accepted client connection.
type serverConn struct {
	srv *Server
	raw net.Conn

	closeOnce sync.Once

	// notifiers is the pair registered on behalf of the client's
	// subscriptions, pushing invalidations down this connection.
	notifiers *docspace.NotifierPair

	mu sync.Mutex
	fw *frameWriter // nil until the handshake completes
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean Close. Serve may be called concurrently with several
// listeners — a cluster deployment gives each simulated node its own
// endpoint on one shared server — and Close tears all of them down.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	if s.ln == nil {
		s.ln = ln
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &serverConn{srv: s, raw: c}
		sc.notifiers = docspace.NewNotifierPair(s.space, fmt.Sprintf("remote:%p", sc),
			func(e event.Event) { sc.push(e.Doc, "") }, // base-level change: all users affected
			func(e event.Event) { sc.push(e.Doc, e.User) })
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = true
		s.served.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.served.Done()
			sc.serve()
		}()
	}
}

// Counters returns a snapshot of the server's wire-level counters:
// requests handled, notifications pushed, and currently open
// connections. It is the in-process accessor behind OpStats, used by
// the observability registry.
func (s *Server) Counters() (requests, notifications, connections int64) {
	s.mu.Lock()
	connections = int64(len(s.conns))
	s.mu.Unlock()
	return s.requests.Load(), s.notifies.Load(), connections
}

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, tears down all connections and waits for
// their handlers to return, the warms that follow writes included,
// then closes the journal.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.lns
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	s.served.Wait()
	if s.journal != nil {
		return s.journal.log.Close()
	}
	return nil
}

// countingReader counts bytes flowing from a client socket.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// serve runs the handshake and the request loop for one connection. A
// peer must lead with helloMagic; anything else is closed unanswered,
// before any decoder sees its bytes.
func (c *serverConn) serve() {
	defer c.teardown()
	s := c.srv
	br := bufio.NewReaderSize(&countingReader{r: c.raw, n: &s.bytesRecv}, 32<<10)
	peek, err := br.Peek(len(helloMagic))
	if err != nil || !bytes.Equal(peek, helloMagic[:]) {
		return
	}
	if _, err := br.Discard(len(helloMagic)); err != nil {
		return
	}
	_ = c.raw.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
	if _, err := c.raw.Write(helloAck[:]); err != nil {
		return
	}
	_ = c.raw.SetWriteDeadline(time.Time{})
	s.bytesSent.Add(int64(len(helloAck)))
	fw := newFrameWriter(c.raw, serverWriteTimeout, nil, &s.bytesSent, func(error) { c.closeRaw() })
	c.mu.Lock()
	c.fw = fw
	c.mu.Unlock()
	c.serveFrames(br)
}

// maxConcurrentHandlers bounds in-flight pipelined requests per
// connection; excess decode stalls, which backpressures the client
// through TCP.
const maxConcurrentHandlers = 32

// serveFrames is the pipelined loop: requests decode on this goroutine
// and execute concurrently, each response enqueued to the connection's
// single frame writer as it finishes. Responses may therefore complete
// out of order — call IDs, not arrival order, correlate them, exactly
// what the client's pending-call table expects.
func (c *serverConn) serveFrames(br *bufio.Reader) {
	var wg sync.WaitGroup
	// In-flight handlers, and the warms after their writes, finish
	// before teardown, so Server.Close (which waits for serve) returns
	// with none of them running.
	defer wg.Wait()
	sem := make(chan struct{}, maxConcurrentHandlers)
	for {
		req, err := readRequestFrame(br)
		if err != nil {
			return // disconnect (or corrupt stream — same remedy)
		}
		if req.Op == OpRead {
			// Warm-hit fast path: a clean cache hit is answered inline
			// on the decode loop — no handler goroutine, no semaphore
			// hand-off. Anything that might block (a miss, a rejected
			// verifier, simulated hit cost, a subscription that cannot
			// be installed) falls through to the concurrent path below.
			// Burst detection picks the write route: with more
			// pipelined requests already buffered the response is
			// queued so the writer coalesces the run into one writev;
			// with the pipe drained (lockstep caller) it is written
			// inline, skipping the writer hand-off.
			if resp, ok := c.tryFastRead(req); ok {
				f, err := encodeResponseFrame(OpRead, resp)
				if err != nil {
					f, _ = encodeResponseFrame(OpRead, &Response{ID: req.ID, Err: err.Error()})
				}
				if br.Buffered() > 0 {
					_ = c.fw.enqueue(f)
				} else {
					_ = c.fw.send(f)
				}
				continue
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(req *Request) {
			defer wg.Done()
			defer func() { <-sem }()
			resp := c.handle(req)
			resp.ID = req.ID
			f, err := encodeResponseFrame(req.Op, resp)
			if err != nil {
				f, _ = encodeResponseFrame(req.Op, &Response{ID: req.ID, Err: err.Error()})
			}
			_ = c.fw.send(f)
			// Ack, then warm: with the writer answered, re-derive the
			// shared prefix the write stranded before a reader needs it.
			// Here and not in apply, so journal replay never warms; the
			// semaphore slot and wg bound warms and make teardown wait.
			if req.Op == OpWrite && resp.Err == "" && c.srv.cache != nil {
				c.srv.cache.Warm(req.Doc, req.User)
			}
		}(req)
	}
}

// tryFastRead probes the cache for a clean warm hit and builds the
// read response inline. ok == false means "use the full handler path":
// no cache, a configured link cost to charge, a subscription the
// notifiers could not take, or any outcome other than a verified hit.
// Bookkeeping mirrors handle() for the cases it short-circuits.
func (c *serverConn) tryFastRead(req *Request) (*Response, bool) {
	s := c.srv
	if s.cache == nil || s.linkCost > 0 {
		return nil, false
	}
	// As in handle: the notifiers go in before the snapshot is taken.
	// On a key this connection subscribed before, a map lookup.
	if req.Subscribe && c.notifiers.Ensure(req.Doc, req.User) != nil {
		return nil, false
	}
	data, info, ok := s.cache.ReadSharedHit(req.Doc, req.User)
	if !ok {
		return nil, false
	}
	s.requests.Add(1)
	resp := cachedReadResponse(data, info)
	resp.ID = req.ID
	return resp, true
}

// push counts and delivers one invalidation push. Pushes come from
// notifiers a request handler installed, so the handshake (and with
// it c.fw) is long done. A push that cannot be encoded or written is
// dropped: the frame writer closes the socket on a write error, and the
// client flushes its cache when it reconnects.
func (c *serverConn) push(doc, user string) {
	c.srv.notifies.Add(1)
	if f, err := encodeResponseFrame(opInvalidate, &Response{NotifyDoc: doc, NotifyUser: user}); err == nil {
		_ = c.fw.send(f)
	}
}

// closeRaw closes the underlying socket once.
func (c *serverConn) closeRaw() { c.closeOnce.Do(func() { c.raw.Close() }) }

// teardown unsubscribes the connection's notifiers and unregisters it.
func (c *serverConn) teardown() {
	c.mu.Lock()
	fw := c.fw
	c.mu.Unlock()
	if fw != nil {
		fw.close()
	}
	c.closeRaw()
	c.notifiers.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// fail builds an error response. The error value stays beside its
// text for in-process callers (journal replay); the wire carries Err.
func fail(err error) *Response { return &Response{Err: err.Error(), err: err} }

// SetLinkCost charges d of simulated time per handled request,
// modeling the application→server network hop in placement
// experiments (real deployments leave it zero and pay the actual
// network). Call before Serve: requests read it without a lock.
func (s *Server) SetLinkCost(d time.Duration) { s.linkCost = d }

// SetStore does nothing: every read body leaves the server from the
// bytes the cache returned, which a disk promote has already verified.
//
// Deprecated: kept only for its call in bench/rungs.go; it goes with
// that call.
func (s *Server) SetStore(*store.Store) {}

// SetWriteHistogram makes the server record how long each OpWrite
// takes inside the origin — write-path properties, the repository
// store and the notifier dispatch that invalidates every cached view —
// which no client-side number separates from the wire.
func (s *Server) SetWriteHistogram(h *obs.Histogram) { s.writeHist.Store(h) }

// WireBytes returns total bytes written to and read from client
// sockets.
func (s *Server) WireBytes() (sent, received int64) {
	return s.bytesSent.Load(), s.bytesRecv.Load()
}

// handle dispatches one request from a connection.
func (c *serverConn) handle(req *Request) *Response {
	s := c.srv
	s.requests.Add(1)
	if s.linkCost > 0 {
		s.space.Clock().Sleep(s.linkCost)
	}
	if req.Op == OpSubscribe {
		if err := c.notifiers.Ensure(req.Doc, req.User); err != nil {
			return fail(err)
		}
		return &Response{}
	}
	// A read that carries its key's subscription installs the notifiers
	// first, in this handler: they are attached before apply takes the
	// snapshot it returns, so no change after that snapshot goes
	// unpushed. A failure is not the read's failure; it is reported
	// beside the bytes.
	subscribeFailed := false
	if req.Op == OpRead && req.Subscribe {
		subscribeFailed = c.notifiers.Ensure(req.Doc, req.User) != nil
	}
	resp := s.applyJournaled(req)
	if resp.Err == "" {
		resp.SubscribeFailed = subscribeFailed
	}
	return resp
}

// apply executes a request that needs no connection state; journal
// replay uses it directly.
func (s *Server) apply(req *Request) *Response {
	level := docspace.Universal
	if req.Personal {
		level = docspace.Personal
	}

	switch req.Op {
	case OpRead:
		var resp *Response
		if s.cache != nil {
			data, info, err := s.cache.ReadWithInfo(req.Doc, req.User)
			if err != nil {
				return fail(err)
			}
			resp = cachedReadResponse(data, info)
		} else {
			data, res, err := s.space.ReadDocument(req.Doc, req.User)
			if err != nil {
				return fail(err)
			}
			resp = &Response{
				Body:            data,
				Cacheability:    int(res.Cacheability),
				CostNanos:       int64(res.Cost),
				ExpiryUnixNanos: expiryNanos(property.EarliestTTL(res.Verifiers)),
			}
		}
		// The one place the server hashes a read body itself: the cache
		// hands back its intern-time signature whenever it holds the
		// bytes, which leaves a storable body nobody interned — no cache
		// behind this server, the cache closed, or the install aborted by
		// a racing invalidation.
		if resp.Signature.IsZero() && property.Cacheability(resp.Cacheability) != property.Uncacheable {
			resp.Signature = sig.Of(resp.Body)
		}
		return resp

	case OpWrite:
		t0 := time.Now()
		err := s.space.WriteDocument(req.Doc, req.User, req.Body)
		if h := s.writeHist.Load(); h != nil {
			h.ObserveSince(t0)
		}
		if err != nil {
			return fail(err)
		}
		return &Response{}

	case OpCreateDocument:
		// Register first, so a refused create (a duplicate or bad id)
		// never reaches the repository, then store the body. A read
		// racing the create finds the document registered before its
		// bytes are stored and reads what the repository holds at the
		// path until then: for a new id nothing, so it fails not-found.
		// A store that fails unregisters the document again.
		path := "/" + req.Doc
		bits := &property.RepoBitProvider{Repo: s.backing, Path: path}
		if _, err := s.space.CreateDocument(req.Doc, req.User, bits); err != nil {
			return fail(err)
		}
		if err := s.backing.Store(path, req.Body); err != nil {
			_ = s.space.RemoveDocument(req.Doc)
			return fail(err)
		}
		return &Response{}

	case OpAddReference:
		if _, err := s.space.AddReference(req.Doc, req.User); err != nil {
			return fail(err)
		}
		return &Response{}

	case OpAttach:
		p, err := ParsePropertySpec(req.Property)
		if err != nil {
			return fail(err)
		}
		if err := s.space.Attach(req.Doc, req.User, level, p); err != nil {
			return fail(err)
		}
		return &Response{}

	case OpDetach:
		if err := s.space.Detach(req.Doc, req.User, level, req.Property); err != nil {
			return fail(err)
		}
		return &Response{}

	case OpAttachStatic:
		st := property.Static{Key: req.Property, Value: req.Value}
		if err := s.space.AttachStatic(req.Doc, req.User, level, st); err != nil {
			return fail(err)
		}
		return &Response{}

	case OpForwardEvent:
		kind, err := parseEventKind(req.Value)
		if err != nil {
			return fail(err)
		}
		if err := s.space.ForwardEvent(req.Doc, req.User, kind); err != nil {
			return fail(err)
		}
		return &Response{}

	case OpStats:
		requests, notifications, connections := s.Counters()
		return &Response{Stats: map[string]int64{
			"requests":      requests,
			"notifications": notifications,
			"connections":   connections,
		}}

	case OpListActives:
		names, err := s.space.Actives(req.Doc, req.User, level)
		if err != nil {
			return fail(err)
		}
		return &Response{Actives: names}

	case OpDescribe:
		d, err := s.space.Describe(req.Doc)
		if err != nil {
			return fail(err)
		}
		return &Response{Text: d.String()}

	case OpFind:
		var matches []Match
		for _, m := range s.space.FindByStatic(req.User, req.Property, req.Value) {
			matches = append(matches, Match{Doc: m.Doc, Value: m.Value, Level: fmt.Sprint(m.Level)})
		}
		return &Response{Matches: matches}

	default:
		return fail(fmt.Errorf("server: unknown op %v", req.Op))
	}
}

// cachedReadResponse is the read response for bytes the cache served,
// on the decode loop's fast hit and the handler's read alike.
func cachedReadResponse(data []byte, info core.EntryInfo) *Response {
	return &Response{
		Body:            data,
		Cacheability:    int(info.Cacheability),
		CostNanos:       int64(info.Cost),
		ExpiryUnixNanos: expiryNanos(info.Expiry),
		Signature:       info.Signature,
	}
}

// expiryNanos converts a TTL deadline to wire form (0 = none).
func expiryNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// parseEventKind maps wire names to event kinds for ForwardEvent.
func parseEventKind(name string) (event.Kind, error) {
	for _, k := range event.Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("server: unknown event kind %q", name)
}
