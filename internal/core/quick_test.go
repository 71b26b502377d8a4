package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/property"
)

// Property-based tests for the pure functions the sharded cache leans
// on: the cacheability aggregation operator, replacement-cost
// accumulation, the shard hash, and the composite-key codec. These are
// the invariants that let the concurrent cache reorder work freely —
// if any of them were order-sensitive, sharding would change observable
// behaviour.

// TestQuickRestrictOrderIndependent: folding any permutation of votes
// through property.Restrict yields the same aggregate, so the order in
// which read-path properties run cannot change cacheability.
func TestQuickRestrictOrderIndependent(t *testing.T) {
	fold := func(votes []property.Cacheability) property.Cacheability {
		agg := property.Unrestricted
		for _, v := range votes {
			agg = property.Restrict(agg, v)
		}
		return agg
	}
	f := func(raw []uint8, seed int64) bool {
		votes := make([]property.Cacheability, len(raw))
		for i, r := range raw {
			votes[i] = property.Cacheability(r % 3)
		}
		want := fold(votes)
		perm := append([]property.Cacheability{}, votes...)
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		return fold(perm) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRestrictAlgebra: Restrict is commutative, associative, and
// idempotent — the algebraic basis for the permutation invariance.
func TestQuickRestrictAlgebra(t *testing.T) {
	c := func(r uint8) property.Cacheability { return property.Cacheability(r % 3) }
	comm := func(x, y uint8) bool {
		return property.Restrict(c(x), c(y)) == property.Restrict(c(y), c(x))
	}
	assoc := func(x, y, z uint8) bool {
		return property.Restrict(property.Restrict(c(x), c(y)), c(z)) ==
			property.Restrict(c(x), property.Restrict(c(y), c(z)))
	}
	idem := func(x uint8) bool { return property.Restrict(c(x), c(x)) == c(x) }
	for name, f := range map[string]any{"commutative": comm, "associative": assoc, "idempotent": idem} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestQuickCostAccumulationOrderIndependent: AddCost over any
// permutation of property execution times accumulates to the same
// replacement cost (it is a sum of clamped-positive durations), so
// GDS sees the same cost no matter how the read path interleaves.
func TestQuickCostAccumulationOrderIndependent(t *testing.T) {
	accumulate := func(ds []time.Duration) time.Duration {
		var rc property.ReadContext
		for _, d := range ds {
			rc.AddCost(d)
		}
		return rc.Result().Cost
	}
	f := func(raw []int32, seed int64) bool {
		ds := make([]time.Duration, len(raw))
		for i, r := range raw {
			ds[i] = time.Duration(r) * time.Microsecond // mix of signs; AddCost clamps negatives
		}
		want := accumulate(ds)
		perm := append([]time.Duration{}, ds...)
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		return accumulate(perm) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickShardAssignmentStable: the shard for a key is a pure
// function of the key bytes and the shard count — repeated lookups and
// lookups on an identically built index always agree. This is what
// makes it safe for invalidation and install paths to locate the same
// stripe independently.
func TestQuickShardAssignmentStable(t *testing.T) {
	idx := newShardedIndex(16)
	idx2 := newShardedIndex(16)
	f := func(doc, user string) bool {
		k := Key(doc, user)
		a, b, c := idx.shardFor(k), idx.shardFor(k), idx2.shardFor(k)
		return a == b && a == &idx.shards[shardHash(k)&idx.mask] &&
			c == &idx2.shards[shardHash(k)&idx2.mask]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// splitKey is the inverse of Key.
func splitKey(k string) (doc, user string) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// TestQuickKeyRoundTrip: splitKey inverts Key for any NUL-free doc and
// user, so Key is injective there: two (document, user) pairs never
// share an entry.
func TestQuickKeyRoundTrip(t *testing.T) {
	f := func(doc, user string) bool {
		if strings.ContainsRune(doc, 0) || strings.ContainsRune(user, 0) {
			return true // composite keys require NUL-free components
		}
		d, u := splitKey(Key(doc, user))
		return d == doc && u == user
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardDistribution: realistic document keys spread across stripes
// without pathological clumping. The bound is loose (4× the mean) —
// this guards against a broken hash (everything on one stripe), not
// statistical perfection.
func TestShardDistribution(t *testing.T) {
	const shards, keys = 16, 10000
	idx := newShardedIndex(shards)
	counts := make(map[*shard]int)
	for i := 0; i < keys; i++ {
		doc := "doc-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + itoa(i)
		counts[idx.shardFor(Key(doc, "user-"+itoa(i%40)))]++
	}
	if len(counts) != shards {
		t.Fatalf("only %d of %d stripes used", len(counts), shards)
	}
	mean := keys / shards
	for _, n := range counts {
		if n > 4*mean {
			t.Fatalf("stripe holds %d keys (mean %d) — hash is clumping", n, mean)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// FuzzShardHash feeds arbitrary doc/user bytes through the key codec
// and shard hash: no input may panic, assignment must be deterministic,
// and the masked stripe index must stay in range for every legal shard
// count.
func FuzzShardHash(f *testing.F) {
	f.Add("doc", "user")
	f.Add("", "")
	f.Add("a/very/long/document/path/with/segments", "eyal@parc.xerox.com")
	f.Add(strings.Repeat("z", 1024), "u")
	f.Add("d\x00embedded", "nul\x00user")
	f.Fuzz(func(t *testing.T, doc, user string) {
		k := Key(doc, user)
		h1, h2 := shardHash(k), shardHash(k)
		if h1 != h2 {
			t.Fatalf("shardHash unstable: %d vs %d", h1, h2)
		}
		for _, n := range []int{1, 2, 8, 16, 256} {
			idx := newShardedIndex(n)
			sh := idx.shardFor(k)
			found := false
			for i := range idx.shards {
				if sh == &idx.shards[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("shardFor returned a stripe outside the index (n=%d)", n)
			}
		}
		if !strings.ContainsRune(doc, 0) && !strings.ContainsRune(user, 0) {
			d, u := splitKey(k)
			if d != doc || u != user {
				t.Fatalf("splitKey(Key(%q,%q)) = (%q,%q)", doc, user, d, u)
			}
		}
	})
}
