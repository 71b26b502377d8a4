package remote

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"placeless/internal/obs"
	"placeless/internal/server"
)

// exposition reads o's unlabelled samples into name → value.
func exposition(t *testing.T, o *obs.Observer) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	sn := bufio.NewScanner(&buf)
	for sn.Scan() {
		name, value, ok := strings.Cut(sn.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", sn.Text(), err)
		}
		out[name] = v
	}
	return out
}

// TestMetricsSumOverNodes: the caches of one sidecar register on one
// Observer in one call. Each placeless_remote_* family is the sum over
// them, every node records its wire round trips, and the connection
// state is the worst node's.
func TestMetricsSumOverNodes(t *testing.T) {
	o := obs.NewObserver()
	a := newChaosRig(t, Options{Observer: o})
	b := newChaosRig(t, Options{Observer: o})
	RegisterMetrics(o, a.cache, b.cache)
	for _, r := range []*chaosRig{a, b} {
		if err := r.client.CreateDocument("d", "u", []byte("remote bits")); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*chaosRig{a, a, b} {
		if _, err := r.cache.Read("d", "u"); err != nil {
			t.Fatal(err)
		}
	}
	m := exposition(t, o)
	for name, want := range map[string]int64{
		"placeless_remote_hits_total":       1,
		"placeless_remote_misses_total":     2,
		"placeless_remote_entries":          2,
		"placeless_remote_bytes_stored":     2 * int64(len("remote bits")),
		"placeless_remote_connection_state": 1,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := o.StageHistogram(obs.StageRemoteRTT).Count(); n != 2 {
		t.Errorf("%d remote_rtt samples for 2 misses on two nodes", n)
	}

	b.kill()
	waitFor(t, func() bool { return b.client.State() == server.StateDisconnected })
	if got := exposition(t, o)["placeless_remote_connection_state"]; got != 0 {
		t.Errorf("one wire down, one up: connection state %d, want 0", got)
	}
	if _, err := b.cache.Read("d", "u"); err == nil {
		t.Fatal("a read with the wire down succeeded")
	}
	if got := exposition(t, o)["placeless_remote_degraded_errors_total"]; got != 1 {
		t.Errorf("degraded errors %d, want the down node's 1", got)
	}
	a.client.Close()
	if got := exposition(t, o)["placeless_remote_connection_state"]; got != -1 {
		t.Errorf("one wire closed, one down: connection state %d, want -1", got)
	}
}
