package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/obs"
	"placeless/internal/remote"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// fakeCache serves fixed bodies by document id; "down" answers as a
// degraded cache does and an unknown id as a missing document.
type fakeCache map[string][]byte

func (f fakeCache) Read(doc, user string) ([]byte, error) {
	if doc == "down" {
		return nil, remote.ErrDegraded
	}
	if b, ok := f[doc]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("no document %q", doc)
}

// ReadBody serves a body as a tail-shared view is held: all but its
// last 30 bytes as the head, then those.
func (f fakeCache) ReadBody(doc, user string) (stream.Body, error) {
	b, err := f.Read(doc, user)
	if err != nil || len(b) <= 30 {
		return stream.Body{Head: b}, err
	}
	return stream.Body{Head: b[:len(b)-30], Tail: b[len(b)-30:], HeadSig: sig.Signature{1}}, nil
}

func (f fakeCache) Write(doc, user string, data []byte) error { return nil }

// body is n bytes of a pattern that differs by n, so a response cut
// short or spliced from another shows.
func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (i+n)%26)
	}
	return b
}

// testSizes are the body sizes the write-count tests read: under one
// net/http buffer, one buffer, two, and past holdCap.
var testSizes = []int{1 << 10, 4 << 10, 8 << 10, 64 << 10}

// serveHeld serves plcached's document handler over fakeCache, plus
// /metrics from an observer with enough counters to pass holdCap,
// through a holdListener on ln until the test ends.
func serveHeld(t *testing.T, ln net.Listener) *obs.Observer {
	return serveHeldOn(t, ln, holdListener{ln})
}

// serveHeldOn is serveHeld accepting through hl, a holdListener over
// ln or over a wrapper of it.
func serveHeldOn(t *testing.T, ln net.Listener, hl holdListener) *obs.Observer {
	t.Helper()
	docs := fakeCache{}
	for _, n := range testSizes {
		docs[fmt.Sprint(n)] = body(n)
	}
	o := obs.NewObserver()
	for i := 0; i < 400; i++ {
		o.Registry().Counter(fmt.Sprintf("placeless_test_counter_%d_total", i),
			"A counter that only pads the exposition past the hold cap.", func() int64 { return int64(i) })
	}
	mux := http.NewServeMux()
	o.Mount(mux)
	mux.HandleFunc("/doc/", docHandler(docs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = http.Serve(hl, mux)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return o
}

// listenTCP is a loopback TCP listener.
func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// dial opens a connection to ln with a deadline that bounds the test.
func dial(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	c, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c
}

// recordConn is a client on a unixpacket socket, where each write(2)
// or writev(2) the server makes arrives as one record: counting the
// records a response arrives in counts the server's writes.
type recordConn struct {
	net.Conn
	buf []byte
}

// get sends a GET for path and reads records until they hold one whole
// response; it returns the response, its body and the record count.
func (rc *recordConn) get(t *testing.T, path string) (*http.Response, []byte, int) {
	t.Helper()
	if _, err := fmt.Fprintf(rc, "GET %s HTTP/1.1\r\nHost: plcached\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for records := 1; ; records++ {
		n, err := rc.Read(rc.buf)
		if err != nil {
			t.Fatalf("GET %s, record %d: %v", path, records, err)
		}
		got = append(got, rc.buf[:n]...)
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(got)), nil)
		if err != nil {
			continue // the header is not complete
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			continue // nor is the body
		}
		return resp, b, records
	}
}

// streamReads gives the server's side of a unixpacket socket a stream's
// reads: the rest of a record longer than a read is kept for the next
// read, not cut off, so net/http's one-byte background read cannot eat
// a request. Writes go straight to the embedded *net.UnixConn, which
// also keeps net.Buffers' writev.
type streamReads struct {
	*net.UnixConn
	buf, rest []byte
}

func (s *streamReads) Read(p []byte) (int, error) {
	if len(s.rest) == 0 {
		n, err := s.UnixConn.Read(s.buf)
		if err != nil {
			return 0, err
		}
		s.rest = s.buf[:n]
	}
	n := copy(p, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// streamListener accepts streamReads connections.
type streamListener struct{ *net.UnixListener }

func (l streamListener) Accept() (net.Conn, error) {
	c, err := l.AcceptUnix()
	if err != nil {
		return nil, err
	}
	return &streamReads{UnixConn: c, buf: make([]byte, 64<<10)}, nil
}

// packetServer serves over a unixpacket socket and dials it, skipping
// where the platform has none.
func packetServer(t *testing.T) *recordConn {
	t.Helper()
	dir, err := os.MkdirTemp("", "plcached")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unixpacket", filepath.Join(dir, "s"))
	if err != nil {
		t.Skipf("no unixpacket sockets: %v", err)
	}
	serveHeldOn(t, ln, holdListener{streamListener{ln.(*net.UnixListener)}})
	return &recordConn{Conn: dial(t, ln), buf: make([]byte, 1<<20)}
}

// TestResponseLeavesInOneWrite: a GET of each body size reaches the
// socket in one write(2) or writev(2), the size past holdCap included.
func TestResponseLeavesInOneWrite(t *testing.T) {
	rc := packetServer(t)
	for _, n := range testSizes {
		resp, b, records := rc.get(t, fmt.Sprintf("/doc/%d?user=u", n))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, body(n)) {
			t.Fatalf("%d-byte GET: status %d, %d bytes, body intact %v", n, resp.StatusCode, len(b), bytes.Equal(b, body(n)))
		}
		if records != 1 {
			t.Errorf("%d-byte GET took %d writes, want 1", n, records)
		}
	}
}

// TestKeepAliveGETsCostOneWriteEach: a hundred GETs on one kept-alive
// connection cost a hundred writes.
func TestKeepAliveGETsCostOneWriteEach(t *testing.T) {
	rc := packetServer(t)
	const gets = 100
	total := 0
	for i := 0; i < gets; i++ {
		n := testSizes[i%len(testSizes)]
		_, b, records := rc.get(t, fmt.Sprintf("/doc/%d?user=u", n))
		if !bytes.Equal(b, body(n)) {
			t.Fatalf("GET %d: %d-byte body not intact", i, n)
		}
		total += records
	}
	if total != gets {
		t.Fatalf("%d keep-alive GETs took %d writes", gets, total)
	}
}

// TestPipelinedRequestsAnsweredInOrder sends two GETs in one write; the
// second is parsed while the first's response may still be held, and
// the responses must come back whole and in request order.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	ln := listenTCP(t)
	serveHeld(t, ln)
	c := dial(t, ln)
	sizes := []int{64 << 10, 1 << 10}
	var req strings.Builder
	for _, n := range sizes {
		fmt.Fprintf(&req, "GET /doc/%d?user=u HTTP/1.1\r\nHost: plcached\r\n\r\n", n)
	}
	if _, err := io.WriteString(c, req.String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for _, n := range sizes {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil || !bytes.Equal(b, body(n)) {
			t.Fatalf("response for the %d-byte GET: %d bytes, %v", n, len(b), err)
		}
	}
}

// TestConnectionCloseDeliversWholeBody: a response the server closes
// the connection after arrives whole, and then the connection ends.
func TestConnectionCloseDeliversWholeBody(t *testing.T) {
	ln := listenTCP(t)
	serveHeld(t, ln)
	for _, n := range testSizes {
		c := dial(t, ln)
		if _, err := fmt.Fprintf(c, "GET /doc/%d?user=u HTTP/1.1\r\nHost: plcached\r\nConnection: close\r\n\r\n", n); err != nil {
			t.Fatal(err)
		}
		all, err := io.ReadAll(c) // returns at EOF
		if err != nil {
			t.Fatalf("%d-byte GET: %v", n, err)
		}
		br := bufio.NewReader(bytes.NewReader(all))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil || !bytes.Equal(b, body(n)) {
			t.Fatalf("%d-byte GET with Connection: close: %d bytes, %v", n, len(b), err)
		}
		if rest, _ := io.ReadAll(br); len(rest) != 0 {
			t.Fatalf("%d bytes after the response", len(rest))
		}
	}
}

// TestErrorAndMetricsArriveIntact: a 503 from the document handler and
// a /metrics exposition larger than holdCap, read with net/http's own
// client, arrive as the handlers wrote them.
func TestErrorAndMetricsArriveIntact(t *testing.T) {
	ln := listenTCP(t)
	o := serveHeld(t, ln)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()

	resp, err := client.Get(base + "/doc/down?user=u")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := remote.ErrDegraded.Error() + "\n"; resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != "1" || string(b) != want {
		t.Fatalf("degraded GET: %d, Retry-After %q, body %q; want 503, 1, %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), b, want)
	}

	var want bytes.Buffer
	if err := o.Registry().WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if want.Len() <= holdCap {
		t.Fatalf("the exposition is %d bytes; the test needs more than holdCap", want.Len())
	}
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("/metrics: %d, %d bytes (%v); want 200 and the %d-byte exposition", resp.StatusCode, len(b), err, want.Len())
	}
}

// TestConcurrentClients drives one server from several kept-alive
// clients at once, each read checked whole. Run it under -race: a held
// connection's bytes are shared by the handler and net/http's
// background read.
func TestConcurrentClients(t *testing.T) {
	ln := listenTCP(t)
	serveHeld(t, ln)
	base := "http://" + ln.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			for i := 0; i < 50; i++ {
				n := testSizes[(g+i)%len(testSizes)]
				resp, err := client.Get(fmt.Sprintf("%s/doc/%d?user=u", base, n))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(b, body(n)) {
					errs <- errors.Join(fmt.Errorf("client %d, GET %d: %d of %d bytes", g, i, len(b), n), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCloseWriteSendsHeldBytes: shutting the writing side down sends
// what is held first, so the peer reads it and then EOF.
func TestCloseWriteSendsHeldBytes(t *testing.T) {
	ln := listenTCP(t)
	defer ln.Close()
	client := dial(t, ln)
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hc := &heldConn{Conn: sc}
	defer hc.Close()
	if _, err := hc.Write([]byte("held")); err != nil {
		t.Fatal(err)
	}
	if err := hc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(client); err != nil || string(got) != "held" {
		t.Fatalf("peer read %q, %v; want \"held\" then EOF", got, err)
	}
}
