package accounting

import "fmt"

// Page-size bounds: a query asking for nothing gets defaultPageSize
// records, and nobody gets more than MaxPageSize per round trip — the
// read tier is sized for many small queries, not bulk export (the
// records dump query is the bulk path).
const (
	defaultPageSize = 100
	MaxPageSize     = 1000
)

// Query filters and paginates job records. All filters are
// conjunctive; zero values mean "no constraint".
type Query struct {
	// User restricts to one job owner (the multi-tenant axis).
	User string `json:"user,omitempty"`
	// Job restricts to one job ID.
	Job string `json:"job,omitempty"`
	// Since drops windows that ended at or before this time.
	Since float64 `json:"since,omitempty"`
	// Limit caps the page size (defaultPageSize when 0, MaxPageSize
	// ceiling).
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a walk after the key a previous page's Next
	// named. Empty starts from the beginning.
	Cursor string `json:"cursor,omitempty"`
}

// Page is one query result: the matching records in canonical order,
// the cursor for the next page (empty when the walk is done), and the
// total match count across all pages.
type Page struct {
	Records []Record `json:"records"`
	Next    string   `json:"next,omitempty"`
	Total   int      `json:"total"`
}

// match reports whether r passes q's filters.
func (q *Query) match(r *Record) bool {
	if q.User != "" && r.User != q.User {
		return false
	}
	if q.Job != "" && r.JobID != q.Job {
		return false
	}
	if q.Since != 0 && r.EndSec <= q.Since {
		return false
	}
	return true
}

// Selection is one evaluated query before anything is copied: which
// records of a canonical snapshot make up the page, not the records
// themselves. It aliases the snapshot it was selected from — shared and
// read-only — so serving a page costs its encoding and nothing else.
type Selection struct {
	q    Query
	tail []Record // the snapshot from the page's first record on
	// N is the number of records on the page; Next and Total are the
	// Page fields of the same name.
	N     int
	Next  string
	Total int
}

// selectSnapshot evaluates q over a canonical (Key-ordered) snapshot in one
// pass. Pure: same snapshot + same query ⇒ same page, bytes included,
// which is what makes pages interchangeable between a shard daemon and
// a federation root holding the same merged state.
func selectSnapshot(snap []Record, q Query) (Selection, error) {
	limit := q.Limit
	switch {
	case limit <= 0:
		limit = defaultPageSize
	case limit > MaxPageSize:
		limit = MaxPageSize
	}
	var after Key
	skipping := false
	if q.Cursor != "" {
		k, err := decodeCursor(q.Cursor)
		if err != nil {
			return Selection{}, err
		}
		after = k
		skipping = true
	}
	sel := Selection{q: q}
	last, more := 0, false
	for i := range snap {
		r := &snap[i]
		if !q.match(r) {
			continue
		}
		sel.Total++
		if skipping && !after.less(r.key()) {
			continue
		}
		if sel.N == limit {
			more = true
			continue
		}
		if sel.N == 0 {
			sel.tail = snap[i:]
		}
		sel.N++
		last = i
	}
	if more {
		sel.Next = EncodeCursor(snap[last].key())
	}
	return sel, nil
}

// Each calls fn for every record of the page, in order. The pointers
// are into the shared snapshot: read-only.
func (s Selection) Each(fn func(*Record)) {
	n := 0
	for i := 0; n < s.N; i++ {
		if r := &s.tail[i]; s.q.match(r) {
			fn(r)
			n++
		}
	}
}

// page copies the selected records out: the value in-process callers
// and the HTTP API hold on to.
func (s Selection) page() Page {
	page := Page{Records: make([]Record, 0, s.N), Next: s.Next, Total: s.Total}
	s.Each(func(r *Record) { page.Records = append(page.Records, *r) })
	return page
}

// Walk pages through q until exhaustion and returns the concatenated
// records — the convenience the CLI's -all flag and tests use. The
// per-call limit still applies per page.
func Walk(query func(Query) (Page, error), q Query) ([]Record, error) {
	var out []Record
	for {
		page, err := query(q)
		if err != nil {
			return nil, fmt.Errorf("accounting: walk: %w", err)
		}
		out = append(out, page.Records...)
		if page.Next == "" {
			return out, nil
		}
		q.Cursor = page.Next
	}
}
