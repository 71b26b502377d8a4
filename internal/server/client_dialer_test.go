package server

import (
	"math/rand"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// simServer starts a server on an in-process simnet listener and
// returns the network plus a dialer-injected client.
func simServer(t *testing.T, opts ...DialOption) (*simnet.Net, *Client, *docspace.Space) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	n := simnet.NewNet(clk, rand.New(rand.NewSource(11)))
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	srv := New(space, backing)
	ln := n.Listen("srv")
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	opts = append([]DialOption{WithDialer(n.Dial), WithJitterSeed(7)}, opts...)
	client, err := Dial("srv", opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Ping once so Serve is known to be accepting before the test (and
	// its cleanup) proceeds.
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return n, client, space
}

func TestDialWithInjectedDialer(t *testing.T) {
	_, c, _ := simServer(t)
	if err := c.CreateDocument("d", "u", []byte("over simnet")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Read("d", "u")
	if err != nil || string(data) != "over simnet" {
		t.Fatalf("Read = %q, %v", data, err)
	}
}

func TestInjectedDialerReconnects(t *testing.T) {
	n, c, _ := simServer(t,
		WithReconnect(time.Millisecond, 4*time.Millisecond),
		WithCallTimeout(2*time.Second))
	if err := c.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	n.BreakConns()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, _, err := c.Read("d", "u"); err == nil && string(data) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client did not recover through the injected dialer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c.Epoch() < 2 {
		t.Fatal("recovery happened without a recorded reconnect")
	}
}

func TestWithJitterSeedSeedsBackoffRNG(t *testing.T) {
	mk := func() *Client {
		_, c, _ := simServer(t)
		return c
	}
	a, b := mk(), mk()
	// White-box: both clients were dialed with the same jitter seed, so
	// their backoff PRNGs must produce identical draws. (Neither client
	// is reconnecting here, so reading rng races with nothing.)
	for i := 0; i < 8; i++ {
		if va, vb := a.rng.Int63(), b.rng.Int63(); va != vb {
			t.Fatalf("draw %d diverged: %d != %d", i, va, vb)
		}
	}
	if !a.cfg.jitterSeeded || a.cfg.jitterSeed != 7 {
		t.Fatalf("jitter seed not recorded: %+v", a.cfg)
	}
}
