package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection driven from the
// calling goroutine. net/http's Transport hands every request to a
// pair of per-connection goroutines; on two cores those hand-offs cost
// the generator more CPU than the sidecar spends serving the request,
// so the benchmark writes the request itself and parses the response
// with http.ReadResponse.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do sends one request and reads the whole response body into body.
// A failed exchange closes the connection; the next call redials.
func (h *httpConn) do(method, path string, payload []byte, body *bytes.Buffer) (status int, err error) {
	if h.c == nil {
		if h.c, err = net.DialTimeout("tcp", h.addr, 5*time.Second); err != nil {
			h.c = nil
			return 0, err
		}
		h.br = bufio.NewReaderSize(h.c, 64<<10)
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	h.req = append(h.req[:0], method...)
	h.req = append(h.req, ' ')
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: "...)
	h.req = append(h.req, h.addr...)
	if payload != nil {
		h.req = append(h.req, "\r\nContent-Length: "...)
		h.req = strconv.AppendInt(h.req, int64(len(payload)), 10)
	}
	h.req = append(h.req, "\r\n\r\n"...)
	h.req = append(h.req, payload...)
	if err = h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	if _, err = h.c.Write(h.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		h.close()
	}
	return resp.StatusCode, err
}
