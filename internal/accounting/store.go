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
// the shared grouped store and serves them read-optimised: the
// canonical sorted snapshot is built once per generation and handed
// out until the next mutating insert invalidates it, so a query storm
// between ingest batches sorts nothing.
type Store struct {
	tel storeTel

	mu   sync.Mutex
	recs *grouped.Store[Record, nodePhase]
	// maxRecords, when positive, caps the resident record count:
	// crossing it evicts whole (job, step) groups, oldest window first,
	// until the store fits again.
	maxRecords int
	evicted    int // records the cap has evicted

	snap    []Record // cached canonical dump; immutable once published
	snapGen uint64
	snapOK  bool
}

// NewStore builds an empty store. ts may be nil (no telemetry).
func NewStore(ts *telemetry.Set) *Store {
	return &Store{
		tel: newStoreTel(ts),
		recs: grouped.New(
			func(r *Record) grouped.Group { return grouped.Group{Job: r.JobID, Step: r.StepID} },
			func(r *Record) nodePhase { return nodePhase{r.Node, r.Phase} },
			func(a, b nodePhase) int {
				return cmp.Or(strings.Compare(a.node, b.node), cmp.Compare(a.phase, b.phase))
			}),
	}
}

// Insert validates and folds one record in, reporting how it was
// classified. The outcome is shared with the node-report database, so
// job records ride the same dedup semantics as node reports: a
// byte-identical re-insert is a duplicate, a same-key
// different-payload insert replaces. Accepted and replaced records
// bump the store generation — the signal snapshot caches (local and
// federation-root) key on.
func (s *Store) Insert(r Record) (grouped.Class, error) {
	if err := r.Validate(); err != nil {
		return grouped.Accepted, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	class := s.recs.Insert(&r)
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
// any eviction moves the generation, so stacked snapshot caches
// rebuild — and refreshes the resident-records gauge.
func (s *Store) pruneLocked() {
	if s.maxRecords > 0 {
		evicted := s.recs.Prune(s.maxRecords, func(r *Record) float64 { return r.EndSec })
		s.evicted += evicted
		s.tel.pruned.Add(uint64(evicted))
	}
	s.tel.records.Set(float64(s.recs.Len()))
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
// The generation still advances so stacked snapshot caches rebuild.
func (s *Store) Seed(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		s.recs.Insert(&recs[i])
	}
	s.pruneLocked()
}

// AppendNodes appends the records of the given nodes, a sorted list,
// to dst in Snapshot's order and returns the extended slice.
func (s *Store) AppendNodes(dst []Record, nodes []string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs.Walk(func(r *Record) {
		if _, ok := slices.BinarySearch(nodes, r.Node); ok {
			dst = append(dst, *r)
		}
	})
	return dst
}

// Clone returns a store holding what s holds that shares its storage
// until written (grouped.Store.Clone), with s's telemetry and retention
// cap and a snapshot cache of its own: the next of a series of
// read-only snapshots, built from the last. s must not be written
// afterwards.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Store{tel: s.tel, recs: s.recs.Clone(), maxRecords: s.maxRecords}
}

// Snapshot returns the canonical (Key-ordered) dump of the store. The
// slice is shared and must not be mutated: it is rebuilt — never
// edited — when the generation moves, so concurrent readers always
// hold an internally consistent dump.
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() []Record {
	gen := s.recs.Generation()
	if s.snapOK && s.snapGen == gen {
		s.tel.cacheHit.Inc()
		return s.snap
	}
	s.tel.cacheMiss.Inc()
	s.snap = s.recs.Append(make([]Record, 0, s.recs.Len()))
	s.snapGen = gen
	s.snapOK = true
	return s.snap
}

// Select evaluates one filtered, cursor-paginated query over the
// canonical snapshot without copying the page out of it — what the
// wire path encodes from. Two stores with identical contents select
// byte-identical pages for the same query — the property the
// federation-root vs. single-daemon acceptance check rides on.
func (s *Store) Select(q Query) (Selection, error) {
	s.mu.Lock()
	snap := s.snapshotLocked()
	s.mu.Unlock()
	s.tel.queries.Inc()
	return selectSnapshot(snap, q)
}

// Query is Select with the page copied out, for callers that keep it.
func (s *Store) Query(q Query) (Page, error) {
	sel, err := s.Select(q)
	if err != nil {
		return Page{}, err
	}
	return sel.page(), nil
}
