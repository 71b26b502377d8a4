package simnet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"placeless/internal/clock"
)

func newTestNet(t *testing.T) (*Net, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	return NewNet(clk, rand.New(rand.NewSource(1))), clk
}

// dialPair returns a connected client/server conn pair.
func dialPair(t *testing.T, n *Net, name string) (client, server net.Conn) {
	t.Helper()
	l := n.Listen(name)
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		accepted <- c
	}()
	c, err := n.Dial(name, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	select {
	case s := <-accepted:
		return c, s
	case <-time.After(2 * time.Second):
		t.Fatal("accept did not complete")
		return nil, nil
	}
}

func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

func TestNetRoundTrip(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	if got := readN(t, s, 5); string(got) != "hello" {
		t.Fatalf("server read %q, want hello", got)
	}
	if _, err := s.Write([]byte("world")); err != nil {
		t.Fatalf("server write: %v", err)
	}
	if got := readN(t, c, 5); string(got) != "world" {
		t.Fatalf("client read %q, want world", got)
	}
}

func TestNetDialRefusedAndPartitioned(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.Dial("nobody", time.Second); err == nil {
		t.Fatal("dial to missing listener succeeded")
	}
	n.Listen("srv")
	n.Partition()
	if _, err := n.Dial("srv", time.Second); err == nil {
		t.Fatal("dial through partition succeeded")
	}
	n.Heal()
	if _, err := n.Dial("srv", time.Second); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
}

func TestNetDropPoisonsStream(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	n.SetFaults(1, 0, 0, 0) // drop everything
	if _, err := c.Write([]byte("secret")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readN(t, s, len(poison))
	if !bytes.Equal(got, poison) {
		t.Fatalf("dropped message delivered %x, want poison", got)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestNetDelayHoldsUntilClockAdvance(t *testing.T) {
	n, clk := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	n.SetFaults(0, 0, 1, 50*time.Millisecond) // delay everything
	if _, err := c.Write([]byte("late")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := n.Inflight(); got != 1 {
		t.Fatalf("Inflight = %d, want 1", got)
	}
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := s.Read(make([]byte, 4)); err == nil {
		t.Fatal("read succeeded before clock advance")
	}
	s.SetReadDeadline(time.Time{})

	clk.Advance(50 * time.Millisecond)
	if got := readN(t, s, 4); string(got) != "late" {
		t.Fatalf("read %q after advance, want late", got)
	}
	if got := n.Inflight(); got != 0 {
		t.Fatalf("Inflight after delivery = %d, want 0", got)
	}
}

func TestNetReorderSwapsAdjacentMessages(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	n.SetFaults(0, 1, 0, 0) // hold first message; slot busy for the second
	if _, err := c.Write([]byte("AAAA")); err != nil {
		t.Fatalf("write A: %v", err)
	}
	if got := n.Inflight(); got != 1 {
		t.Fatalf("Inflight with held message = %d, want 1", got)
	}
	if _, err := c.Write([]byte("BBBB")); err != nil {
		t.Fatalf("write B: %v", err)
	}
	if got := readN(t, s, 8); string(got) != "BBBBAAAA" {
		t.Fatalf("read %q, want BBBBAAAA (reordered)", got)
	}
}

func TestNetFlushReleasesHeldMessage(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	n.SetFaults(0, 1, 0, 0)
	if _, err := c.Write([]byte("solo")); err != nil {
		t.Fatalf("write: %v", err)
	}
	n.Flush()
	if got := n.Inflight(); got != 0 {
		t.Fatalf("Inflight after flush = %d, want 0", got)
	}
	if got := readN(t, s, 4); string(got) != "solo" {
		t.Fatalf("read %q, want solo", got)
	}
}

// TestNetCloseRacingWriteLeavesNothingInFlight: a message held for
// reorder on a conn that a concurrent Close is tearing down must not
// stay counted in flight, or a settle phase waiting for Inflight() == 0
// never converges.
func TestNetCloseRacingWriteLeavesNothingInFlight(t *testing.T) {
	n, _ := newTestNet(t)
	n.SetFaults(0, 1, 0, 0)
	for i := 0; i < 300; i++ {
		c, s := dialPair(t, n, fmt.Sprintf("srv%d", i))
		wrote, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; ; j++ {
				if _, err := c.Write([]byte("x")); err != nil {
					return
				}
				if j == 0 {
					close(wrote)
				}
			}
		}()
		<-wrote
		c.Close()
		<-done
		s.Close()
		n.Flush()
		if got := n.Inflight(); got != 0 {
			t.Fatalf("round %d: %d messages in flight after the conn closed and the network flushed", i, got)
		}
	}
}

func TestNetPartitionLimboAndHeal(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	n.Partition()
	c.Write([]byte("one."))
	s.Write([]byte("two."))
	c.Write([]byte("tri."))
	if got := n.Inflight(); got != 3 {
		t.Fatalf("Inflight during partition = %d, want 3", got)
	}
	n.Heal()
	if got := readN(t, s, 8); string(got) != "one.tri." {
		t.Fatalf("server read %q, want one.tri.", got)
	}
	if got := readN(t, c, 4); string(got) != "two." {
		t.Fatalf("client read %q, want two.", got)
	}
}

func TestNetBreakConnsGivesEOFButKeepsListener(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")

	n.BreakConns()
	if _, err := s.Read(make([]byte, 1)); err == nil {
		t.Fatal("server read succeeded after BreakConns")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("client write succeeded after BreakConns")
	}
	// The listener survives: a fresh dial works.
	c2, s2 := dialPair(t, n, "srv")
	defer c2.Close()
	defer s2.Close()
	c2.Write([]byte("ok"))
	if got := readN(t, s2, 2); string(got) != "ok" {
		t.Fatalf("post-break read %q, want ok", got)
	}
}

func TestNetCloseGivesPeerEOFAfterDrain(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer s.Close()

	c.Write([]byte("bye"))
	c.Close()
	if got := readN(t, s, 3); string(got) != "bye" {
		t.Fatalf("read %q, want bye", got)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after peer close = %v, want io.EOF", err)
	}
}

func TestNetReadDeadline(t *testing.T) {
	n, _ := newTestNet(t)
	c, s := dialPair(t, n, "srv")
	defer c.Close()
	defer s.Close()

	s.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, err := s.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("read past deadline = %v, want net.Error timeout", err)
	}
}

func TestNewPathWithRandIsDeterministic(t *testing.T) {
	mk := func() *Path {
		return NewPathWithRand("p", rand.New(rand.NewSource(7)),
			Link{Name: "l", Latency: time.Millisecond, Jitter: time.Millisecond})
	}
	a, b := mk(), mk()
	for i := 0; i < 16; i++ {
		if ca, cb := a.Cost(100), b.Cost(100); ca != cb {
			t.Fatalf("draw %d: %v != %v", i, ca, cb)
		}
	}
}
