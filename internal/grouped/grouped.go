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
// only a header and a region of 4-byte slot numbers kept in key order;
// inserting out of order shifts slot numbers, never rows. Slots of
// evicted groups go on a free list and are reused before a new chunk is
// opened.
//
// Headers and slot regions are cut from blocks the store owns, so the
// store allocates per block, not per group: blocks start small and
// double to a cap, and a group that fills its region moves to one twice
// the size, leaving the old one to its block. An evicted header is
// zeroed and reused; when evictions and moves leave the slot blocks
// holding more than a few slots per live record, Prune repacks every
// group into fresh blocks, which bounds what the store holds by what it
// stores.
//
// A clone shares its source's chunks, headers, regions and group map
// and copies one only the first time it writes to it: every chunk and
// header, and the map, carries the clone depth of the store that made
// it, and a store writes only its own. The source is never written
// through a clone, so a published store stays as it was while the next
// one is built from it.
//
// Walks visit groups in a canonical order the store keeps: built by the
// first walk after the set of group headers changes, never on insert,
// and shared with a clone until the clone changes a header itself.
//
// A Store is not safe for concurrent use; its typed wrappers hold the
// lock. Reads may run at once under a read lock: the order they build
// has a lock of its own. The package depends on the standard library
// only.
package grouped

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"
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

// Block sizes, in slots and headers: the first block of each kind is
// small, so a store of a few groups stays small, and each next one
// doubles up to the cap. A region larger than the slot cap gets a block
// of its own size. A group's first region holds firstRegion slots.
const (
	firstSlotBlock = 16
	maxSlotBlock   = 1024
	firstHdrBlock  = 2
	maxHdrBlock    = 32
	firstRegion    = 2
)

// A store repacks its slot blocks in Prune once they hold more than
// repackPerRecord slots per live record beyond repackSlack: twice what a
// freshly packed store may hold, so repacks stay rare next to the
// inserts that make them necessary.
const (
	repackPerRecord = 8
	repackSlack     = 2 * maxSlotBlock
)

// Store holds records of type R keyed by (group, S), where S is the
// part of a record's key that tells it from the others of its group.
type Store[R comparable, S any] struct {
	group func(*R) Group
	sub   func(*R) S
	order func(a, b S) int

	chunks []chunk[R]
	used   int32   // slots handed out of chunks so far
	free   []int32 // slots given back by evicted groups
	groups map[Group]*rows
	n      int
	gen    uint64
	// depth counts the clones between the store and the one it was
	// built from empty. Its own chunks and headers carry it, and mapDepth
	// is groups' depth; those of lower depth are its source's, read-only
	// to it.
	depth, mapDepth uint64

	hdrs     []rows  // the current header block; headers are cut from its spare capacity
	nextHdrs int     // size of the header block after it
	freeHdrs []*rows // zeroed headers of evicted groups, reused first
	slab     []int32 // the current slot block; regions are cut from its spare capacity
	nextSlab int     // size of the slot block after it
	held     int     // slots in the blocks opened since the last repack
	// ord is the groups in canonical order, nil until a walk builds it
	// after the group map changed; ordMu keeps readers from building it
	// at once.
	ordMu sync.Mutex
	ord   []*rows
	// probe holds the record being inserted. The key functions are
	// opaque calls, so a pointer handed to one must already be on the
	// heap, or every caller's record would be moved there.
	probe R
}

// chunk is one block of rows and the depth of the store that made it.
type chunk[R any] struct {
	rows  *[chunkRows]R
	depth uint64
}

// rows is one group: the slots of its records, in S order, in a
// region of a slot block whose capacity is the region's size, and the
// depth of the store that cut the header.
type rows struct {
	key   Group
	slots []int32
	depth uint64
}

// header returns an empty group header of the store's own: an evicted
// group's, or one cut from the current header block.
func (s *Store[R, S]) header() *rows {
	var g *rows
	if n := len(s.freeHdrs); n > 0 {
		g = s.freeHdrs[n-1]
		s.freeHdrs = s.freeHdrs[:n-1]
	} else {
		if len(s.hdrs) == cap(s.hdrs) {
			size := max(s.nextHdrs, firstHdrBlock)
			s.nextHdrs = min(2*size, maxHdrBlock)
			s.hdrs = make([]rows, 0, size)
		}
		s.hdrs = s.hdrs[:len(s.hdrs)+1]
		g = &s.hdrs[len(s.hdrs)-1]
	}
	g.depth = s.depth
	return g
}

// region returns an empty slice with room for n slots, cut from the
// current slot block. A block too full for it is abandoned to the
// regions already cut from it.
func (s *Store[R, S]) region(n int) []int32 {
	if n > cap(s.slab)-len(s.slab) {
		size := max(s.nextSlab, firstSlotBlock, n)
		s.nextSlab = min(2*size, maxSlotBlock)
		s.slab = make([]int32, 0, size)
		s.held += size
	}
	at := len(s.slab)
	s.slab = s.slab[:at+n]
	return s.slab[at : at : at+n]
}

// New builds an empty store. group and sub split a record's key;
// order compares the sub-keys of one group.
func New[R comparable, S any](group func(*R) Group, sub func(*R) S, order func(a, b S) int) *Store[R, S] {
	return &Store[R, S]{group: group, sub: sub, order: order, groups: map[Group]*rows{}}
}

// Clone returns a store holding what s holds, at the same generation,
// in two allocations whatever its size: it shares s's chunks, headers,
// slot regions, group map and canonical order, and copies a chunk, a
// group's header and region, or the map the first time it writes to
// one. Nothing of s is ever written through the clone; s itself must
// not be written once cloned, since the clone reads through to it.
func (s *Store[R, S]) Clone() *Store[R, S] {
	s.ordMu.Lock()
	ord := s.ord
	s.ordMu.Unlock()
	return &Store[R, S]{
		group:    s.group,
		sub:      s.sub,
		order:    s.order,
		chunks:   slices.Clone(s.chunks),
		used:     s.used,
		free:     slices.Clone(s.free),
		groups:   s.groups,
		n:        s.n,
		gen:      s.gen,
		depth:    s.depth + 1,
		mapDepth: s.mapDepth,
		ord:      ord,
	}
}

func (s *Store[R, S]) row(slot int32) *R { return &s.chunks[slot/chunkRows].rows[slot%chunkRows] }

// writable returns slot's row for writing: a chunk the store shares
// with its source is copied first.
func (s *Store[R, S]) writable(slot int32) *R {
	c := &s.chunks[slot/chunkRows]
	if c.depth != s.depth {
		rows := new([chunkRows]R)
		*rows = *c.rows
		*c = chunk[R]{rows: rows, depth: s.depth}
	}
	return &c.rows[slot%chunkRows]
}

// writableGroups returns the group map for writing: a map the store
// shares with its source is copied first. A write to the map changes the
// set of headers, so the canonical order goes with it.
func (s *Store[R, S]) writableGroups() map[Group]*rows {
	s.ord = nil
	if s.mapDepth != s.depth {
		s.groups, s.mapDepth = maps.Clone(s.groups), s.depth
	}
	return s.groups
}

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
		g = s.header()
		g.key = k
		s.writableGroups()[k] = g
	}
	i, found := s.find(g, s.sub(p))
	if found {
		slot := g.slots[i]
		if *s.row(slot) == *p {
			return Duplicate
		}
		*s.writable(slot) = *p
		s.gen++
		return Replaced
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if int(s.used) == len(s.chunks)*chunkRows {
			s.chunks = append(s.chunks, chunk[R]{rows: new([chunkRows]R), depth: s.depth})
		}
		slot = s.used
		s.used++
	}
	*s.writable(slot) = *p
	if g.depth != s.depth || len(g.slots) == cap(g.slots) {
		size := cap(g.slots)
		if len(g.slots) == size {
			size = max(2*size, firstRegion)
		}
		slots := g.slots
		if g.depth != s.depth { // a header of the store's own
			g = s.header()
			g.key = k
			s.writableGroups()[k] = g
		}
		g.slots = append(s.region(size), slots...)
	}
	g.slots = slices.Insert(g.slots, i, slot) // within the region: no allocation
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

// sorted returns the groups in canonical order: the order the store
// keeps, built first if the headers changed since the last walk. The
// slice is shared and read-only.
func (s *Store[R, S]) sorted() []*rows {
	s.ordMu.Lock()
	defer s.ordMu.Unlock()
	if s.ord == nil {
		gs := make([]*rows, 0, len(s.groups))
		for _, g := range s.groups {
			gs = append(gs, g)
		}
		slices.SortFunc(gs, func(a, b *rows) int { return a.key.Compare(b.key) })
		s.ord = gs
	}
	return s.ord
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

// WalkFrom is Walk from the record at position i of Walk's order on,
// stopping once fn returns false. Whole groups before i are skipped
// without visiting their records.
func (s *Store[R, S]) WalkFrom(i int, fn func(*R) bool) {
	for _, g := range s.sorted() {
		if i >= len(g.slots) {
			i -= len(g.slots)
			continue
		}
		for _, slot := range g.slots[i:] {
			if !fn(s.row(slot)) {
				return
			}
		}
		i = 0
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
// identical contents prune identically. An evicted group's rows and
// header are zeroed, so they keep no strings alive (a clone leaves
// those it shares with its source to the source). After every Prune
// the slot blocks hold at most repackPerRecord slots per live record
// beyond repackSlack: past that, they are repacked.
func (s *Store[R, S]) Prune(keep int, end func(*R) float64) int {
	before := s.n
	if s.n > keep {
		s.evict(keep, end)
	}
	if s.held > repackPerRecord*s.n+repackSlack {
		s.repack()
	}
	return before - s.n
}

// evict removes whole groups in Prune's order until at most keep
// records remain.
func (s *Store[R, S]) evict(keep int, end func(*R) float64) {
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
	for _, a := range order {
		if s.n <= keep {
			break
		}
		var zero R
		for _, slot := range a.g.slots {
			if c := &s.chunks[slot/chunkRows]; c.depth == s.depth {
				c.rows[slot%chunkRows] = zero // release the row's strings with the group
			}
		}
		s.free = append(s.free, a.g.slots...)
		s.n -= len(a.g.slots)
		delete(s.writableGroups(), a.g.key)
		if a.g.depth == s.depth {
			*a.g = rows{}
			s.freeHdrs = append(s.freeHdrs, a.g)
		}
		s.gen++
	}
}

// repack moves every group's header and slots into fresh blocks, each
// region as large as it was, and drops the free headers: the blocks
// that evictions and moves left part-empty go with the last reference
// into them. Groups are placed in canonical order, so the layout does
// not depend on map iteration.
func (s *Store[R, S]) repack() {
	old := s.sorted()
	s.hdrs, s.freeHdrs, s.slab, s.held = nil, nil, nil, 0
	groups := s.writableGroups()
	for _, o := range old {
		g := s.header()
		g.key, g.slots = o.key, append(s.region(cap(o.slots)), o.slots...)
		groups[o.key] = g
	}
}
