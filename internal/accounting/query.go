package accounting

import "fmt"

// Page-size bounds: a query asking for nothing gets defaultPageSize
// records, and nobody gets more than MaxPageSize per round trip — the
// read tier is sized for many small queries, not bulk export (a
// changes query from zero, a store's whole view, is the bulk path).
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
