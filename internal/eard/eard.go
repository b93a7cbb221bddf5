// Package eard implements the node-daemon side of EAR: the energy
// accounting service. EAR's architecture splits responsibilities between
// the per-application runtime library (EARL, package earl) and a
// privileged node daemon that records per-job energy accounting and
// serves it to the cluster database. This package provides that
// accounting: job records keyed by (job, step, node), aggregation across
// nodes, and JSON persistence.
package eard

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
)

// JobRecord is one node's accounting entry for one job step, the unit
// EAR's eacct tool reports.
type JobRecord struct {
	JobID    string  `json:"job_id"`
	StepID   string  `json:"step_id"`
	Node     string  `json:"node"`
	App      string  `json:"app"`
	Policy   string  `json:"policy"`
	TimeSec  float64 `json:"time_sec"`
	EnergyJ  float64 `json:"energy_j"`
	AvgPower float64 `json:"avg_power_w"`
	AvgCPU   float64 `json:"avg_cpu_ghz"`
	AvgIMC   float64 `json:"avg_imc_ghz"`
	AvgCPI   float64 `json:"avg_cpi"`
	AvgGBs   float64 `json:"avg_gbs"`
}

// Validate reports whether the record is storable. Every measurement
// must be finite: a NaN would never compare equal to itself, so the
// daemon's re-delivery check (prev == r) could never recognise the
// record again, and it would poison every sum it enters.
func (r JobRecord) Validate() error {
	for _, v := range [...]float64{r.TimeSec, r.EnergyJ, r.AvgPower, r.AvgCPU, r.AvgIMC, r.AvgCPI, r.AvgGBs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("eard: record carries a non-finite value")
		}
	}
	switch {
	case r.JobID == "" || r.Node == "":
		return fmt.Errorf("eard: record needs job id and node")
	case r.TimeSec <= 0:
		return fmt.Errorf("eard: record time must be positive")
	case r.EnergyJ < 0:
		return fmt.Errorf("eard: record energy must be non-negative")
	}
	return nil
}

// stepKey identifies a job step, the unit records are grouped by.
type stepKey struct{ job, step string }

// group holds one job step's records, one per node, in a single slice:
// inserting appends (or overwrites in place), so a record costs no
// allocation of its own, and everything asked about a job step touches
// only its group.
type group struct {
	key    stepKey
	rows   []JobRecord
	byNode map[string]int32 // node → index into rows
	// unsorted is set when a node arrived out of name order; the next
	// ordered read sorts rows once and reindexes.
	unsorted bool
}

// sort puts rows in node order. Callers hold the write lock.
func (g *group) sort() {
	if !g.unsorted {
		return
	}
	slices.SortFunc(g.rows, func(a, b JobRecord) int { return strings.Compare(a.Node, b.Node) })
	for i := range g.rows {
		g.byNode[g.rows[i].Node] = int32(i)
	}
	g.unsorted = false
}

// DB is an in-memory accounting database with JSON persistence.
type DB struct {
	mu     sync.RWMutex
	groups map[stepKey]*group
	n      int
}

// NewDB returns an empty accounting database.
func NewDB() *DB { return &DB{groups: map[stepKey]*group{}} }

// Insert stores (or replaces) a record.
func (db *DB) Insert(r JobRecord) error {
	if err := r.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.insertLocked(r)
	return nil
}

func (db *DB) insertLocked(r JobRecord) {
	k := stepKey{r.JobID, r.StepID}
	g := db.groups[k]
	if g == nil {
		g = &group{key: k, byNode: map[string]int32{}}
		db.groups[k] = g
	}
	if i, ok := g.byNode[r.Node]; ok {
		g.rows[i] = r
		return
	}
	if n := len(g.rows); n > 0 && r.Node < g.rows[n-1].Node {
		g.unsorted = true
	}
	g.byNode[r.Node] = int32(len(g.rows))
	g.rows = append(g.rows, r)
	db.n++
}

// Get returns the stored record for one (job, step, node) key, if any.
// The database daemon uses it to classify incoming records as fresh,
// identical re-deliveries, or genuine updates.
func (db *DB) Get(jobID, stepID, node string) (JobRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if g := db.groups[stepKey{jobID, stepID}]; g != nil {
		if i, ok := g.byNode[node]; ok {
			return g.rows[i], true
		}
	}
	return JobRecord{}, false
}

// Len returns the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.n
}

// sortedRows returns one job step's rows in node order (nil when the
// step has none). Callers hold the write lock, which the one-off sort
// of a group that took nodes out of order needs.
func (db *DB) sortedRows(k stepKey) []JobRecord {
	g := db.groups[k]
	if g == nil {
		return nil
	}
	g.sort()
	return g.rows
}

// Job returns all node records of one job step, sorted by node.
func (db *DB) Job(jobID, stepID string) []JobRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	return slices.Clone(db.sortedRows(stepKey{jobID, stepID}))
}

// JobSummary aggregates a job step across nodes: total energy, the
// longest node time, and power-weighted averages.
type JobSummary struct {
	JobID    string  `json:"job_id"`
	StepID   string  `json:"step_id"`
	Nodes    int     `json:"nodes"`
	TimeSec  float64 `json:"time_sec"`    // slowest node
	EnergyJ  float64 `json:"energy_j"`    // sum across nodes
	AvgPower float64 `json:"avg_power_w"` // mean node power
}

// Summarize aggregates one job step, summing in node order. It
// returns an error when the job has no records.
func (db *DB) Summarize(jobID, stepID string) (JobSummary, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	recs := db.sortedRows(stepKey{jobID, stepID})
	if len(recs) == 0 {
		return JobSummary{}, fmt.Errorf("eard: no records for job %s step %s", jobID, stepID)
	}
	s := JobSummary{JobID: jobID, StepID: stepID, Nodes: len(recs)}
	for i := range recs {
		r := &recs[i]
		if r.TimeSec > s.TimeSec {
			s.TimeSec = r.TimeSec
		}
		s.EnergyJ += r.EnergyJ
		s.AvgPower += r.AvgPower
	}
	s.AvgPower /= float64(len(recs))
	return s, nil
}

// sortedGroups returns the groups in (job, step) order. Callers hold
// the lock.
func (db *DB) sortedGroups() []*group {
	gs := make([]*group, 0, len(db.groups))
	for _, g := range db.groups {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *group) int {
		return cmp.Or(strings.Compare(a.key.job, b.key.job), strings.Compare(a.key.step, b.key.step))
	})
	return gs
}

// Jobs lists distinct (job, step) pairs, sorted.
func (db *DB) Jobs() [][2]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	gs := db.sortedGroups()
	out := make([][2]string, len(gs))
	for i, g := range gs {
		out[i] = [2]string{g.key.job, g.key.step}
	}
	return out
}

// Records returns every stored record sorted by (job, step, node):
// the canonical dump order shared by Save and the federation tier's
// shard merges.
func (db *DB) Records() []JobRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	recs := make([]JobRecord, 0, db.n)
	for _, g := range db.sortedGroups() {
		g.sort()
		recs = append(recs, g.rows...)
	}
	return recs
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Records())
}

// Load replaces the database contents from JSON produced by Save.
func (db *DB) Load(r io.Reader) error {
	var recs []JobRecord
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return fmt.Errorf("eard: decode: %w", err)
	}
	fresh := NewDB()
	for _, rec := range recs {
		if err := rec.Validate(); err != nil {
			return err
		}
		fresh.insertLocked(rec)
	}
	db.mu.Lock()
	db.groups, db.n = fresh.groups, fresh.n
	db.mu.Unlock()
	return nil
}
