// Package ring places node IDs on EARDBD shards with consistent
// hashing. EAR's production deployment runs one EARDBD per island and
// assigns every compute node to exactly one of them; when an island
// daemon is added or drained the assignment must move as few nodes as
// possible, because each move abandons a warm dedup window and
// re-aggregates that node's history on a new shard.
//
// The ring hashes each shard under a fixed number of virtual points
// (FNV-1a over "name#i") onto a 64-bit circle; a key is owned by the
// first point clockwise from its own hash. Placement is a pure
// function of the membership set — two rings built from the same
// members agree on every key, whatever the order of Add calls — and
// removing one shard only remaps the keys that shard owned.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// DefaultReplicas is the virtual-point count per shard. 128 points
// keeps the owner-share spread within a few percent for the shard
// counts this tier runs (single digits to low tens) while a full
// rebuild stays microseconds.
const DefaultReplicas = 128

// point is one virtual position of a shard on the circle. Points sort
// by hash with the shard name as tiebreak, so even a hash collision
// between two shards leaves the ring order — and therefore placement —
// deterministic.
type point struct {
	hash uint64
	name string
}

// Ring is a consistent-hash ring over shard names. The zero value is
// not usable; construct with New. Ring is not safe for concurrent
// mutation; callers that rebalance while routing must synchronise.
type Ring struct {
	replicas int
	members  map[string]bool
	points   []point // sorted by (hash, name)
}

// New builds an empty ring. replicas <= 0 selects DefaultReplicas.
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: map[string]bool{}}
}

// NewWithMembers builds a ring holding the given shards. Duplicate or
// empty names error.
func NewWithMembers(replicas int, members []string) (*Ring, error) {
	r := New(replicas)
	for _, m := range members {
		if err := r.Add(m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ParseMembers splits a comma-separated member list — the form every
// binary takes shard endpoints in — dropping empty elements.
func ParseMembers(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Add inserts one shard. Adding an existing or empty name errors.
func (r *Ring) Add(name string) error {
	if name == "" {
		return fmt.Errorf("ring: shard name must be non-empty")
	}
	if r.members[name] {
		return fmt.Errorf("ring: shard %q already present", name)
	}
	r.members[name] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: pointHash(name, i), name: name})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].name < r.points[j].name
	})
	return nil
}

// Remove drops one shard; keys it owned move to their next point on
// the circle, everything else keeps its owner. Removing an absent
// shard errors.
func (r *Ring) Remove(name string) error {
	if !r.members[name] {
		return fmt.Errorf("ring: shard %q not present", name)
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Owner returns the shard owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyHash(key)
	// First point at or clockwise past the key's hash, wrapping to the
	// start of the circle.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].name, true
}

// Members returns the shard names, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the shard count.
func (r *Ring) Len() int { return len(r.members) }

// Spread counts, for each member, how many of the given keys it owns:
// the balance diagnostic earload prints per shard. Keys on an empty
// ring count nowhere.
func (r *Ring) Spread(keys []string) map[string]int {
	out := make(map[string]int, len(r.members))
	for m := range r.members {
		out[m] = 0
	}
	for _, k := range keys {
		if owner, ok := r.Owner(k); ok {
			out[owner]++
		}
	}
	return out
}

// pointHash positions virtual point i of a shard on the circle.
func pointHash(name string, i int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	// Separator plus a decimal index: "s1"#11 and "s11"#1 must differ.
	_, _ = fmt.Fprintf(h, "#%d", i)
	return mix(h.Sum64())
}

// keyHash positions a key on the circle. Keys hash through a distinct
// prefix from points so a node named exactly like a shard's virtual
// point label cannot land on its hash by construction.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("k/"))
	_, _ = h.Write([]byte(key))
	return mix(h.Sum64())
}

// mix is the MurmurHash3 64-bit finaliser. Ring placement sorts on the
// full hash value, which FNV-1a alone serves poorly: a change in a
// short key's trailing byte barely reaches the high bits, so
// sequentially named nodes ("node0001", "node0002", ...) cluster into
// arcs and land on the same shard. The finaliser's avalanche spreads
// them uniformly around the circle.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
