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
// struct, member map and point slices: the hashes are folded on the
// stack and the sort allocates nothing.
func TestNewWithMembersAllocations(t *testing.T) {
	members := []string{"shard0", "shard1", "shard2", "shard3"}
	if n := testing.AllocsPerRun(20, func() { _, _ = NewWithMembers(0, members) }); n > 16 {
		t.Errorf("NewWithMembers of 4 shards: %v allocations, want at most 16", n)
	}
}

func TestPlacementDeterministicAcrossBuildOrder(t *testing.T) {
	a, err := NewWithMembers(0, []string{"s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	b := New(0)
	for _, m := range []string{"s3", "s1", "s4", "s2"} {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("node%04d", i)
		oa, ok := a.Owner(key)
		if !ok {
			t.Fatal("empty ring")
		}
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("key %s: owner %s in build order A, %s in order B", key, oa, ob)
		}
	}
}

func TestRemoveOnlyRemapsOwnedKeys(t *testing.T) {
	r, err := NewWithMembers(0, []string{"s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("node%04d", i)
		o, _ := r.Owner(key)
		before[key] = o
	}
	if err := r.Remove("s2"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, was := range before {
		now, ok := r.Owner(key)
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

func TestAddOnlyClaimsKeys(t *testing.T) {
	r, err := NewWithMembers(0, []string{"s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("node%04d", i)
		o, _ := r.Owner(key)
		before[key] = o
	}
	if err := r.Add("s4"); err != nil {
		t.Fatal(err)
	}
	claimed := 0
	for key, was := range before {
		now, _ := r.Owner(key)
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
	r, err := NewWithMembers(0, []string{"s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("node%05d", i)
	}
	spread := r.Spread(keys)
	total := 0
	for _, n := range spread {
		total += n
	}
	if total != len(keys) {
		t.Fatalf("spread accounts for %d of %d keys", total, len(keys))
	}
	for m, n := range spread {
		// With 128 virtual points per shard the share stays well inside
		// [1/2, 2] of the fair 2500; a gross imbalance means the hash or
		// search broke.
		if n < len(keys)/8 || n > len(keys)/2 {
			t.Errorf("shard %s owns %d of %d keys, outside sanity band", m, n, len(keys))
		}
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	r := New(0)
	if _, ok := r.Owner("n1"); ok {
		t.Error("empty ring claimed an owner")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty shard name accepted")
	}
	if err := r.Add("s1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("s1"); err == nil {
		t.Error("duplicate shard accepted")
	}
	if err := r.Remove("s9"); err == nil {
		t.Error("removing absent shard succeeded")
	}
	o, ok := r.Owner("anything")
	if !ok || o != "s1" {
		t.Errorf("single-shard ring routed to %q, %v", o, ok)
	}
	if err := r.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Owner("n1"); ok {
		t.Error("drained ring still claims an owner")
	}
	if got := r.Len(); got != 0 {
		t.Errorf("drained ring Len = %d", got)
	}
}

func TestMembersSorted(t *testing.T) {
	r, err := NewWithMembers(4, []string{"sc", "sa", "sb"})
	if err != nil {
		t.Fatal(err)
	}
	m := r.Members()
	want := []string{"sa", "sb", "sc"}
	if len(m) != len(want) {
		t.Fatalf("members = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("members = %v, want %v", m, want)
		}
	}
}
