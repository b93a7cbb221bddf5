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
// members agree on every key, whatever order they are listed in — and
// a ring with one shard more owns every other key as the smaller ring
// does: only the added shard's keys move.
package ring

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// defaultReplicas is the virtual-point count per shard. 128 points
// keeps the owner-share spread within a few percent for the shard
// counts this tier runs (single digits to low tens) while a full
// rebuild stays microseconds.
const defaultReplicas = 128

// point is one virtual position of a shard on the circle. Points sort
// by hash with the shard name as tiebreak, so even a hash collision
// between two shards leaves the ring order — and therefore placement —
// deterministic.
type point struct {
	hash uint64
	name string
}

// Ring is a consistent-hash ring over shard names, built once from its
// member set by NewWithMembers. It is never mutated, so concurrent
// lookups are safe.
type Ring struct {
	points []point // sorted by (hash, name)
}

// NewWithMembers builds a ring holding the given shards, each under
// replicas virtual points (defaultReplicas when replicas <= 0).
// Duplicate or empty names error.
func NewWithMembers(replicas int, members []string) (*Ring, error) {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &Ring{points: make([]point, 0, replicas*len(members))}
	for i, name := range members {
		if name == "" {
			return nil, fmt.Errorf("ring: shard name must be non-empty")
		}
		if slices.Contains(members[:i], name) {
			return nil, fmt.Errorf("ring: shard %q already present", name)
		}
		for j := 0; j < replicas; j++ {
			r.points = append(r.points, point{hash: pointHash(name, j), name: name})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
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

// FNV-1a 64 is folded inline over the bytes (hashInit → hashString →
// mix), the trace package's idiom: the same bytes as hash/fnv hashes,
// so placement is unchanged, and no hasher or byte slice on the heap.
const (
	hashInit        = uint64(14695981039346656037)
	fnvPrime uint64 = 1099511628211
)

func hashString[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// pointHash positions virtual point i of a shard on the circle.
func pointHash(name string, i int) uint64 {
	// Separator plus a decimal index: "s1"#11 and "s11"#1 must differ.
	var label [24]byte
	h := hashString(hashInit, name)
	return mix(hashString(h, strconv.AppendInt(append(label[:0], '#'), int64(i), 10)))
}

// keyHash positions a key on the circle. Keys hash through a distinct
// prefix from points so a node named exactly like a shard's virtual
// point label cannot land on its hash by construction.
func keyHash(key string) uint64 {
	return mix(hashString(hashString(hashInit, "k/"), key))
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
