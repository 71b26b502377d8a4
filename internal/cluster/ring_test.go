package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// nodeSet derives a deterministic fleet of n node names.
func nodeSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cache-%02d.example:7999", i)
	}
	return out
}

func ringOf(nodes []string, replicas, vnodes int) *Ring {
	r := NewRing(replicas, vnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// sampleKeys derives k deterministic ring keys.
func sampleKeys(k int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, k)
	for i := range out {
		out[i] = Key(fmt.Sprintf("doc-%06x", rng.Int63n(1<<24)), fmt.Sprintf("u%d", rng.Intn(64)))
	}
	return out
}

// TestRingOwnersDistinct pins the replica-placement contract via
// testing/quick: owner sets contain min(replicas, size) nodes, all
// distinct, all members, primary first and stable across calls.
func TestRingOwnersDistinct(t *testing.T) {
	prop := func(nNodes uint8, nReplicas uint8, doc, user string) bool {
		n := 1 + int(nNodes)%9       // 1..9 nodes
		reps := 1 + int(nReplicas)%5 // 1..5 replicas
		r := ringOf(nodeSet(n), reps, 16)
		owners := r.Owners(Key(doc, user))
		want := reps
		if want > n {
			want = n
		}
		if len(owners) != want {
			return false
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] || !r.Contains(o) {
				return false
			}
			seen[o] = true
		}
		// Deterministic: a second walk and a second identical ring agree.
		again := ringOf(nodeSet(n), reps, 16).Owners(Key(doc, user))
		if len(again) != len(owners) {
			return false
		}
		for i := range owners {
			if owners[i] != again[i] {
				return false
			}
		}
		p, ok := r.Primary(Key(doc, user))
		return ok && p == owners[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRingMinimalMovementOnJoin pins the consistent-hash guarantee:
// when a node joins, the only keys whose primary changes are keys
// that moved TO the new node — no key shuffles between old nodes.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		nodes := nodeSet(n + 1)
		before := ringOf(nodes[:n], 2, DefaultVNodes)
		after := ringOf(nodes[:n], 2, DefaultVNodes)
		joiner := nodes[n]
		after.Add(joiner)
		moved := 0
		keys := sampleKeys(4000, int64(n))
		for _, k := range keys {
			pb, _ := before.Primary(k)
			pa, _ := after.Primary(k)
			if pb == pa {
				continue
			}
			moved++
			if pa != joiner {
				t.Fatalf("n=%d: key moved %s → %s, not to the joining node %s", n, pb, pa, joiner)
			}
		}
		// Expected movement ≈ 1/(n+1) of keys; allow a 2x band.
		max := 2 * len(keys) / (n + 1)
		if moved > max {
			t.Errorf("n=%d: %d of %d keys moved on join, want ≤ %d (≈1/(n+1) each)", n, moved, len(keys), max)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved nothing — the new node owns no keys", n)
		}
	}
}

// TestRingMinimalMovementOnLeave pins the inverse: when a node
// leaves, only keys it owned change primary.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	nodes := nodeSet(6)
	before := ringOf(nodes, 2, DefaultVNodes)
	leaver := nodes[2]
	after := ringOf(nodes, 2, DefaultVNodes)
	after.Remove(leaver)
	for _, k := range sampleKeys(4000, 99) {
		pb, _ := before.Primary(k)
		pa, _ := after.Primary(k)
		if pb != leaver && pb != pa {
			t.Fatalf("key owned by %s moved to %s when %s left", pb, pa, leaver)
		}
		if pb == leaver && pa == leaver {
			t.Fatalf("key still owned by the removed node %s", leaver)
		}
	}
}

// TestRingBalance bounds primary-ownership skew at DefaultVNodes:
// every node's hash-space share stays within a factor of the mean,
// and the analytic shares agree with an empirical key count.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		r := ringOf(nodeSet(n), 2, DefaultVNodes)
		shares := r.Shares()
		mean := 1.0 / float64(n)
		for node, s := range shares {
			if s > 2.0*mean || s < mean/2.0 {
				t.Errorf("n=%d: node %s owns %.1f%% of the space, mean is %.1f%% (vnodes=%d)",
					n, node, 100*s, 100*mean, DefaultVNodes)
			}
		}
		// Empirical cross-check: key counts track the analytic shares.
		keys := sampleKeys(20000, int64(n)*7)
		counts := map[string]int{}
		for _, k := range keys {
			p, _ := r.Primary(k)
			counts[p]++
		}
		for node, s := range shares {
			got := float64(counts[node]) / float64(len(keys))
			if diff := got - s; diff > 0.02 || diff < -0.02 {
				t.Errorf("n=%d: node %s empirical share %.3f vs analytic %.3f", n, node, got, s)
			}
		}
	}
}

// TestRingEmptyAndSingle pins the degenerate shapes.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(3, 8)
	if o := r.Owners("k"); o != nil {
		t.Fatalf("empty ring returned owners %v", o)
	}
	if _, ok := r.Primary("k"); ok {
		t.Fatal("empty ring returned a primary")
	}
	r.Add("only")
	if o := r.Owners("k"); len(o) != 1 || o[0] != "only" {
		t.Fatalf("single-node ring owners = %v", o)
	}
	if r.Add("only") {
		t.Fatal("duplicate Add reported a change")
	}
	if !r.Remove("only") || r.Remove("only") {
		t.Fatal("Remove bookkeeping wrong")
	}
	if r.Size() != 0 {
		t.Fatalf("Size = %d after removing the only node", r.Size())
	}
}

// FuzzRingOwners fuzzes key and membership bytes through the
// invariants: owners distinct and members, shares sum to 1, removal
// moves only the removed node's keys.
func FuzzRingOwners(f *testing.F) {
	f.Add("alpha", "amy", uint8(3), uint8(2))
	f.Add("", "", uint8(1), uint8(1))
	f.Add("doc\x00odd", "u\xffv", uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, doc, user string, nNodes, reps uint8) {
		n := 1 + int(nNodes)%8
		r := ringOf(nodeSet(n), 1+int(reps)%4, 16)
		k := Key(doc, user)
		owners := r.Owners(k)
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q for key %q", o, k)
			}
			if !r.Contains(o) {
				t.Fatalf("owner %q not a member", o)
			}
			seen[o] = true
		}
		total := 0.0
		for _, s := range r.Shares() {
			total += s
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("shares sum to %v, want 1", total)
		}
		if n > 1 {
			pb, _ := r.Primary(k)
			victim := owners[0]
			r.Remove(victim)
			pa, ok := r.Primary(k)
			if !ok {
				t.Fatal("primary vanished with members left")
			}
			if pb != victim && pa != pb {
				t.Fatalf("removing %q moved a key owned by %q", victim, pb)
			}
		}
	})
}
