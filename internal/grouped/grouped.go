// Package grouped is the keyed record store behind both databases of
// the aggregation tier: eard.DB (node reports, one per job step and
// node) and accounting.Store (attributed job energy, one per job step,
// node and phase). Records are grouped by (job, step) — the unit every
// summary, page and retention decision works on — and ordered inside a
// group by the rest of their key, so the canonical (key-ordered) dump
// is a walk over sorted groups with no per-dump record sort.
//
// Rows live in fixed-size chunks that are never re-copied: a chunk is
// allocated once, filled slot by slot and kept until the store goes
// away, so a stored record costs its own bytes once, where an
// append-grown slice pays two to four times its final size in
// doubling copies and a map of records boxes every value. A group is
// only a list of 4-byte slot numbers kept in key order; inserting out
// of order shifts slot numbers, never rows. Slots of evicted groups
// go on a free list and are reused before a new chunk is opened.
//
// A Store is not safe for concurrent use; its typed wrappers hold the
// lock. The package depends on the standard library only.
package grouped

import (
	"cmp"
	"slices"
	"strings"
)

// Group identifies a job step, the unit records are grouped by.
type Group struct{ Job, Step string }

// Compare orders groups canonically: by job, then step.
func (g Group) Compare(o Group) int {
	return cmp.Or(strings.Compare(g.Job, o.Job), strings.Compare(g.Step, o.Step))
}

// Class is an insert outcome: a record under a new key is accepted, a
// record equal to the one stored under its key is a duplicate (the
// re-delivery case: nothing changes), and a different record under a
// stored key replaces it.
type Class int

const (
	Accepted Class = iota
	Duplicate
	Replaced
)

// chunkRows is the number of rows per chunk: large enough that chunk
// allocations are rare next to the records they hold, small enough
// that a nearly empty store wastes little.
const chunkRows = 64

// Store holds records of type R keyed by (group, S), where S is the
// part of a record's key that tells it from the others of its group.
type Store[R comparable, S any] struct {
	group func(*R) Group
	sub   func(*R) S
	order func(a, b S) int

	chunks []*[chunkRows]R
	used   int32   // slots handed out of chunks so far
	free   []int32 // slots given back by evicted groups
	groups map[Group]*rows
	n      int
	gen    uint64
	// probe holds the record being inserted. The key functions are
	// opaque calls, so a pointer handed to one must already be on the
	// heap, or every caller's record would be moved there.
	probe R
}

// rows is one group: the slots of its records, in S order.
type rows struct {
	key   Group
	slots []int32
}

// New builds an empty store. group and sub split a record's key;
// order compares the sub-keys of one group.
func New[R comparable, S any](group func(*R) Group, sub func(*R) S, order func(a, b S) int) *Store[R, S] {
	return &Store[R, S]{group: group, sub: sub, order: order, groups: map[Group]*rows{}}
}

func (s *Store[R, S]) row(slot int32) *R { return &s.chunks[slot/chunkRows][slot%chunkRows] }

// find returns the position of sub in g's slot list and whether a
// record is stored there. Records mostly arrive in key order, so the
// end of the list is tried before the binary search.
func (s *Store[R, S]) find(g *rows, sub S) (int, bool) {
	lo, hi := 0, len(g.slots)
	if hi > 0 && s.order(s.sub(s.row(g.slots[hi-1])), sub) < 0 {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := s.order(s.sub(s.row(g.slots[mid])), sub); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// Insert stores *r under its key and reports how it was classified.
// The generation advances on Accepted and Replaced only.
func (s *Store[R, S]) Insert(r *R) Class {
	s.probe = *r
	p := &s.probe
	k := s.group(p)
	g := s.groups[k]
	if g == nil {
		g = &rows{key: k}
		s.groups[k] = g
	}
	i, found := s.find(g, s.sub(p))
	if found {
		row := s.row(g.slots[i])
		if *row == *p {
			return Duplicate
		}
		*row = *p
		s.gen++
		return Replaced
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if int(s.used) == len(s.chunks)*chunkRows {
			s.chunks = append(s.chunks, new([chunkRows]R))
		}
		slot = s.used
		s.used++
	}
	*s.row(slot) = *p
	g.slots = slices.Insert(g.slots, i, slot)
	s.n++
	s.gen++
	return Accepted
}

// Len returns the number of stored records.
func (s *Store[R, S]) Len() int { return s.n }

// Generation reports the mutation counter: it moves whenever the
// stored contents change — a record accepted or replaced, a group
// evicted — and never otherwise, so equal generations of one store
// mean identical contents.
func (s *Store[R, S]) Generation() uint64 { return s.gen }

// sorted returns the groups in canonical order.
func (s *Store[R, S]) sorted() []*rows {
	gs := make([]*rows, 0, len(s.groups))
	for _, g := range s.groups {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *rows) int { return a.key.Compare(b.key) })
	return gs
}

// Groups lists the stored groups in canonical order.
func (s *Store[R, S]) Groups() []Group {
	gs := s.sorted()
	out := make([]Group, len(gs))
	for i, g := range gs {
		out[i] = g.key
	}
	return out
}

// Each calls fn for every record of group k in key order and returns
// how many there were. The pointer is only valid during the call.
func (s *Store[R, S]) Each(k Group, fn func(*R)) int {
	g := s.groups[k]
	if g == nil {
		return 0
	}
	for _, slot := range g.slots {
		fn(s.row(slot))
	}
	return len(g.slots)
}

// Walk calls fn for every record in canonical order — groups by (job,
// step), records by the rest of their key. The pointer is into the
// store's own rows: read-only, and only valid during the call.
func (s *Store[R, S]) Walk(fn func(*R)) {
	for _, g := range s.sorted() {
		for _, slot := range g.slots {
			fn(s.row(slot))
		}
	}
}

// Append appends every record to dst in Walk's order and returns the
// extended slice: the dump persistence, merges and pages all share.
func (s *Store[R, S]) Append(dst []R) []R {
	s.Walk(func(r *R) { dst = append(dst, *r) })
	return dst
}

// Prune evicts whole groups — a job step's records age out together,
// never partially — until at most keep records remain, and returns how
// many records went. Groups go oldest first by the latest end any of
// their records reports, ties broken by key order, so two stores with
// identical contents prune identically.
func (s *Store[R, S]) Prune(keep int, end func(*R) float64) int {
	if s.n <= keep {
		return 0
	}
	type aged struct {
		g   *rows
		end float64
	}
	order := make([]aged, 0, len(s.groups))
	for _, g := range s.sorted() {
		a := aged{g, end(s.row(g.slots[0]))}
		for _, slot := range g.slots[1:] {
			a.end = max(a.end, end(s.row(slot)))
		}
		order = append(order, a)
	}
	slices.SortStableFunc(order, func(a, b aged) int { return cmp.Compare(a.end, b.end) })
	before := s.n
	for _, a := range order {
		if s.n <= keep {
			break
		}
		var zero R
		for _, slot := range a.g.slots {
			*s.row(slot) = zero // release the row's strings with the group
		}
		s.free = append(s.free, a.g.slots...)
		s.n -= len(a.g.slots)
		delete(s.groups, a.g.key)
		s.gen++
	}
	return before - s.n
}
