package ring

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestHashesMatchHashFNV holds the inline FNV-1a folds to hash/fnv over
// the same bytes, so rings built before and after them place every
// node alike: each point of a corpus of names at 300 indices, and
// 10,000 keys.
func TestHashesMatchHashFNV(t *testing.T) {
	refPoint := func(name string, i int) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		_, _ = fmt.Fprintf(h, "#%d", i)
		return mix(h.Sum64())
	}
	refKey := func(key string) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte("k/" + key))
		return mix(h.Sum64())
	}
	names := []string{"", "s1", "s11", "shard0", "shard3", "127.0.0.1:4711", "nœud-é", "k/node0001",
		"a-shard-name-longer-than-any-stack-label-the-hash-could-keep"}
	for _, name := range names {
		for i := 0; i < 300; i++ {
			if got, want := pointHash(name, i), refPoint(name, i); got != want {
				t.Fatalf("pointHash(%q, %d) = %#x, hash/fnv gives %#x", name, i, got, want)
			}
		}
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("node%05d", i)
		if i%1000 == 999 {
			key = names[i/1000%len(names)]
		}
		if got, want := keyHash(key), refKey(key); got != want {
			t.Fatalf("keyHash(%q) = %#x, hash/fnv gives %#x", key, got, want)
		}
	}
}

// TestNewWithMembersAllocations holds a fleet's ring build to its
// struct and point slice: the hashes are folded on the stack and the
// sort allocates nothing.
func TestNewWithMembersAllocations(t *testing.T) {
	members := []string{"shard0", "shard1", "shard2", "shard3"}
	if n := testing.AllocsPerRun(20, func() { _, _ = NewWithMembers(0, members) }); n > 2 {
		t.Errorf("NewWithMembers of 4 shards: %v allocations, want at most 2", n)
	}
}

// mustRing builds a ring over members at the default replica count.
func mustRing(t *testing.T, members ...string) *Ring {
	t.Helper()
	r, err := NewWithMembers(0, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// placement maps n sequential node names to their owners.
func placement(r *Ring, n int) map[string]string {
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("node%04d", i)
		if o, ok := r.Owner(key); ok {
			out[key] = o
		}
	}
	return out
}

func TestPlacementDeterministicAcrossBuildOrder(t *testing.T) {
	a, b := mustRing(t, "s1", "s2", "s3", "s4"), mustRing(t, "s3", "s1", "s4", "s2")
	pa, pb := placement(a, 1000), placement(b, 1000)
	if len(pa) != 1000 {
		t.Fatal("empty ring")
	}
	for key, oa := range pa {
		if ob := pb[key]; oa != ob {
			t.Fatalf("key %s: owner %s in build order A, %s in order B", key, oa, ob)
		}
	}
}

// TestRemoveOnlyRemapsOwnedKeys: the ring without a shard moves that
// shard's keys and no other.
func TestRemoveOnlyRemapsOwnedKeys(t *testing.T) {
	before := placement(mustRing(t, "s1", "s2", "s3", "s4"), 2000)
	after := placement(mustRing(t, "s1", "s3", "s4"), 2000)
	moved := 0
	for key, was := range before {
		now, ok := after[key]
		if !ok {
			t.Fatal("ring emptied unexpectedly")
		}
		if was == "s2" {
			if now == "s2" {
				t.Fatalf("key %s still owned by removed shard", key)
			}
			moved++
			continue
		}
		if now != was {
			t.Errorf("key %s moved %s -> %s though its shard stayed", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("fixture broken: removed shard owned no keys")
	}
}

// TestAddOnlyClaimsKeys: the ring with one shard more moves keys only
// onto that shard.
func TestAddOnlyClaimsKeys(t *testing.T) {
	before := placement(mustRing(t, "s1", "s2", "s3"), 2000)
	after := placement(mustRing(t, "s1", "s2", "s3", "s4"), 2000)
	claimed := 0
	for key, was := range before {
		now := after[key]
		if now == was {
			continue
		}
		if now != "s4" {
			t.Errorf("key %s moved %s -> %s; only the new shard may claim keys", key, was, now)
		}
		claimed++
	}
	if claimed == 0 {
		t.Fatal("fixture broken: new shard claimed no keys")
	}
}

func TestSpreadIsRoughlyBalanced(t *testing.T) {
	const keys = 10000
	spread := map[string]int{}
	for _, owner := range placement(mustRing(t, "s1", "s2", "s3", "s4"), keys) {
		spread[owner]++
	}
	total := 0
	for _, n := range spread {
		total += n
	}
	if total != keys || len(spread) != 4 {
		t.Fatalf("%d shards own %d of %d keys", len(spread), total, keys)
	}
	for m, n := range spread {
		// With 128 virtual points per shard the share stays well inside
		// [1/2, 2] of the fair 2500; a gross imbalance means the hash or
		// search broke.
		if n < keys/8 || n > keys/2 {
			t.Errorf("shard %s owns %d of %d keys, outside sanity band", m, n, keys)
		}
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	if _, ok := mustRing(t).Owner("n1"); ok {
		t.Error("empty ring claimed an owner")
	}
	if _, ok := (&Ring{}).Owner("n1"); ok {
		t.Error("zero ring claimed an owner")
	}
	if _, err := NewWithMembers(0, []string{"s1", ""}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := NewWithMembers(0, []string{"s1", "s2", "s1"}); err == nil {
		t.Error("duplicate shard accepted")
	}
	o, ok := mustRing(t, "s1").Owner("anything")
	if !ok || o != "s1" {
		t.Errorf("single-shard ring routed to %q, %v", o, ok)
	}
}
