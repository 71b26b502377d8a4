package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"

	"placeless/internal/core"
	"placeless/internal/property"
	"placeless/internal/server"
	"placeless/internal/sig"
)

// fakeOrigin speaks the wire protocol by hand, from the layout in
// DESIGN.md §12 and with none of package server's codecs, so the
// signature a read response carries is whatever the test says — a real
// server always sends sig.Of(body). It answers every Read with body,
// Unrestricted, and sg, and with flags 0: a read that carried its
// subscription is told the notifiers went in. The returned client is
// connected to it; seen returns the flags field of every request frame
// so far, in arrival order.
func fakeOrigin(t *testing.T, body []byte, sg sig.Signature) (client *server.Client, seen func() []uint16) {
	t.Helper()
	var (
		mu    sync.Mutex
		flags []uint16
	)
	const version = 6
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		magic := make([]byte, 8)
		if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, []byte("\x00PLWREv6")) {
			t.Errorf("fake origin: client opened with %q, %v", magic, err)
			return
		}
		if _, err := conn.Write([]byte("\x00PLACKv6")); err != nil {
			return
		}
		for {
			// Request: 16-byte header, payload, CRC-32C trailer.
			hdr := make([]byte, 16)
			if _, err := io.ReadFull(br, hdr); err != nil {
				return // client closed
			}
			rest := make([]byte, binary.BigEndian.Uint32(hdr[12:16])+4)
			if _, err := io.ReadFull(br, rest); err != nil {
				return
			}
			mu.Lock()
			flags = append(flags, binary.BigEndian.Uint16(hdr[2:4]))
			mu.Unlock()
			var payload []byte
			switch op := server.Op(hdr[1]); op {
			case server.OpRead:
				payload = append(payload, byte(property.Unrestricted))
				payload = binary.BigEndian.AppendUint64(payload, 0) // cost
				payload = binary.BigEndian.AppendUint64(payload, 0) // no expiry
				payload = append(payload, sg[:]...)
				payload = binary.BigEndian.AppendUint32(payload, 0) // a whole body:
				payload = append(payload, sig.Zero[:]...)           // no head
				payload = append(payload, body...)
			default:
				t.Errorf("fake origin: unexpected op %v", op)
				return
			}
			out := []byte{version, hdr[1], 0, 0}
			out = append(out, hdr[4:12]...) // echo the call ID
			out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
			out = append(out, payload...)
			out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	client, err = server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, func() []uint16 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint16(nil), flags...)
	}
}

// TestBlobKeyedByWireSignature: the cache files a body under the
// signature that arrived with it. The origin here labels the body with
// a value no hash of it would produce, and two users' byte-identical
// views still share one blob — so the key is the wire's, not one the
// cache derived.
func TestBlobKeyedByWireSignature(t *testing.T) {
	body := []byte("same for all")
	wireSig := sig.Signature{0xab, 0xcd, 0xef}
	if wireSig == sig.Of(body) {
		t.Fatal("test signature collides with the real one")
	}
	client, _ := fakeOrigin(t, body, wireSig)
	cache := New(client, Options{})
	for _, user := range []string{"eyal", "paul", "eyal", "paul"} {
		got, err := cache.Read("d", user)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("read as %s = %q, %v", user, got, err)
		}
	}
	st := cache.Stats()
	if cache.Len() != 2 || st.BytesStored != int64(len(body)) {
		t.Fatalf("len=%d stored=%d, want two entries over one %d-byte blob", cache.Len(), st.BytesStored, len(body))
	}
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses then 2 hits", st)
	}
	for _, user := range []string{"eyal", "paul"} {
		if e, _ := cache.tab.Lookup(core.Key("d", user)); e == nil || e.Signature != wireSig {
			t.Fatalf("entry of %s = %+v, not keyed by the wire signature", user, e)
		}
	}
}

// TestZeroSignatureServedNotInstalled: a storable response that arrives
// without a signature has no safe key — filing it under the zero value
// would alias every other such body — so it is served and dropped.
func TestZeroSignatureServedNotInstalled(t *testing.T) {
	body := []byte("unsigned")
	client, _ := fakeOrigin(t, body, sig.Zero)
	cache := New(client, Options{})
	for i := 0; i < 2; i++ {
		got, err := cache.Read("d", "u")
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("read %d = %q, %v", i, got, err)
		}
	}
	st := cache.Stats()
	if cache.Len() != 0 || st.BytesStored != 0 {
		t.Fatalf("len=%d stored=%d, want nothing installed", cache.Len(), st.BytesStored)
	}
	if st.Misses != 2 || st.Hits != 0 || st.Uncacheable != 2 {
		t.Fatalf("stats = %+v, want both reads counted as uncacheable misses", st)
	}
}
