package accounting

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"goear/internal/grouped"
	"goear/internal/telemetry"
)

// nodePhase is the part of a record's key inside its (job, step)
// group.
type nodePhase struct {
	node  string
	phase int
}

// Store holds job energy records keyed by (job, step, node, phase) in
// the shared grouped store and serves every read from those rows: a page
// and a copy under its lock, a whole view from pinned rows (Pin), all in
// canonical order, with no second copy of the records kept beside them.
type Store struct {
	tel storeTel

	mu   sync.Mutex
	recs grouped.Shared[Record, nodePhase]
	// maxRecords, when positive, caps the resident record count:
	// crossing it evicts whole (job, step) groups, oldest window first,
	// until the store fits again.
	maxRecords int
	evicted    int // records the cap has evicted
}

// NewStore builds an empty store. ts may be nil (no telemetry).
func NewStore(ts *telemetry.Set) *Store {
	return &Store{
		tel: newStoreTel(ts),
		recs: grouped.Share(grouped.New(
			func(r *Record) grouped.Group { return grouped.Group{Job: r.JobID, Step: r.StepID} },
			func(r *Record) nodePhase { return nodePhase{r.Node, r.Phase} },
			func(a, b nodePhase) int {
				return cmp.Or(strings.Compare(a.node, b.node), cmp.Compare(a.phase, b.phase))
			})),
	}
}

// Insert validates and folds one record in, reporting how it was
// classified. The outcome is shared with the node-report database, so
// job records ride the same dedup semantics as node reports: a
// byte-identical re-insert is a duplicate, a same-key
// different-payload insert replaces. Accepted and replaced records
// bump the store generation — the signal the federation root's view
// cache keys on.
func (s *Store) Insert(r Record) (grouped.Class, error) {
	if err := r.Validate(); err != nil {
		return grouped.Accepted, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	class := s.recs.Writable().Insert(&r)
	switch class {
	case grouped.Duplicate:
		s.tel.ingDup.Inc()
	case grouped.Replaced:
		s.tel.ingRepl.Inc()
	default:
		s.tel.ingAccept.Inc()
		s.pruneLocked()
	}
	return class, nil
}

// SetMaxRecords installs (or with 0 removes) the retention cap and
// prunes immediately if the store already exceeds it.
func (s *Store) SetMaxRecords(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxRecords = n
	s.pruneLocked()
}

// pruneLocked enforces the retention cap — whole (job, step) groups go,
// oldest first by the group's latest window end (see grouped.Prune);
// any eviction moves the generation, so a root's cached view rebuilds —
// and refreshes the resident-records gauge.
func (s *Store) pruneLocked() {
	if s.maxRecords > 0 {
		evicted := s.recs.Writable().Prune(s.maxRecords, func(r *Record) float64 { return r.EndSec })
		s.evicted += evicted
		s.tel.pruned.Add(uint64(evicted))
	}
	s.tel.records.Set(float64(s.recs.Rows().Len()))
}

// Evicted counts the records the retention cap has evicted since the
// store was built: a store that moved by losing records, which a reader
// following it by insert cannot tell from the inserts alone.
func (s *Store) Evicted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Seed restores records wholesale — a daemon reloading its persisted
// store after a restart — without classifying them as fresh ingest.
// The generation still advances so a root's cached view rebuilds.
func (s *Store) Seed(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.recs.Writable()
	for i := range recs {
		rows.Insert(&recs[i])
	}
	s.pruneLocked()
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs.Rows().Len()
}

// AppendNodes appends the records of the given nodes, a sorted list,
// to dst in Snapshot's order and returns the extended slice.
func (s *Store) AppendNodes(dst []Record, nodes []string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs.Rows().Walk(func(r *Record) {
		if _, ok := slices.BinarySearch(nodes, r.Node); ok {
			dst = append(dst, *r)
		}
	})
	return dst
}

// Clone returns a store holding what s holds that shares its storage
// until written (grouped.Store.Clone), with s's telemetry and retention
// cap: the next of a series of read-only snapshots, built from the
// last. s must not be written afterwards.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Store{tel: s.tel, recs: grouped.Share(s.recs.Rows().Clone()), maxRecords: s.maxRecords}
}

// Snapshot returns a copy of every record in canonical (Key) order:
// what persistence saves. Serving copies nothing: a whole view walks
// pinned rows (Pin), a page is Select.
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs.Rows().Append(make([]Record, 0, s.recs.Rows().Len()))
}

// Pinned is a store's rows as they stood when pinned (Pin).
type Pinned = grouped.Pinned[Record, nodePhase]

// Pin returns the store's rows for reading without its lock until
// Release, in Snapshot's order: a reader that walks them holds up no
// write or eviction (grouped.Shared).
func (s *Store) Pin() Pinned { return s.recs.Pin(&s.mu) }

// Select evaluates one filtered, cursor-paginated query over the
// store's rows without copying the page out of them — what the wire
// path encodes from. Under one hold of the lock it finds the page, calls
// begin with its record count and each with every record on it in
// canonical order, and returns the page's Total and, when another page
// follows (more), next, the key of its last record, which the next
// page's cursor names (AppendCursor, EncodeCursor). The resume cursor is
// parsed on the stack and compared with the rows as bytes, so a page is
// selected without allocating. The pointers are into the store's own
// rows — read-only, valid only during the call — and neither callback
// may call back into s. Two stores with identical contents select
// byte-identical pages for the same query — the property the
// federation-root vs. single-daemon acceptance check rides on.
func (s *Store) Select(q Query, begin func(n int), each func(*Record)) (next Key, more bool, total int, err error) {
	limit := q.Limit
	switch {
	case limit <= 0:
		limit = defaultPageSize
	case limit > MaxPageSize:
		limit = MaxPageSize
	}
	s.tel.queries.Inc()
	var raw [cursorRoom]byte
	var after cursor
	if q.Cursor != "" {
		if after, err = parseCursor(raw[:], q.Cursor); err != nil {
			return Key{}, false, 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// One pass counts the matches and finds the page: where it starts in
	// the canonical order, how many records it holds and the last of them.
	var last *Record
	at, first, n := 0, 0, 0
	s.recs.Rows().Walk(func(r *Record) {
		at++
		if !q.match(r) {
			return
		}
		total++
		switch {
		case q.Cursor != "" && !after.before(r):
		case n == limit:
			more = true
		default:
			if n == 0 {
				first = at - 1
			}
			n++
			last = r
		}
	})
	if more {
		next = last.key()
	}
	begin(n)
	if n > 0 {
		s.recs.Rows().WalkFrom(first, func(r *Record) bool {
			if q.match(r) {
				each(r)
				n--
			}
			return n > 0
		})
	}
	return next, more, total, nil
}

// Query is Select with the page copied out, for callers that keep it.
func (s *Store) Query(q Query) (Page, error) {
	var page Page
	next, more, total, err := s.Select(q,
		func(n int) { page.Records = make([]Record, 0, n) },
		func(r *Record) { page.Records = append(page.Records, *r) })
	if err != nil {
		return Page{}, err
	}
	if more {
		page.Next = EncodeCursor(next)
	}
	page.Total = total
	return page, nil
}
