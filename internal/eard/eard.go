// Package eard implements the node-daemon side of EAR: the energy
// accounting service. EAR's architecture splits responsibilities between
// the per-application runtime library (EARL, package earl) and a
// privileged node daemon that records per-job energy accounting and
// serves it to the cluster database. This package provides that
// accounting: job records keyed by (job, step, node) and aggregation
// across nodes. A daemon's state file holds them in the wire format
// (eardbd.SaveState), written through WriteFile.
package eard

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"goear/internal/grouped"
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

// DB is an in-memory accounting database: the shared grouped store
// keyed by (job, step) and node, behind a lock, with validation on the
// way in.
type DB struct {
	mu   sync.RWMutex
	recs grouped.Shared[JobRecord, string]
}

func newRecords() *grouped.Store[JobRecord, string] {
	return grouped.New(
		func(r *JobRecord) grouped.Group { return grouped.Group{Job: r.JobID, Step: r.StepID} },
		func(r *JobRecord) string { return r.Node },
		strings.Compare)
}

// NewDB returns an empty accounting database.
func NewDB() *DB { return &DB{recs: grouped.Share(newRecords())} }

// Insert stores (or replaces) a record.
func (db *DB) Insert(r JobRecord) error {
	_, err := db.Put(r)
	return err
}

// Put stores a record and reports how it was classified: accepted
// under a new (job, step, node) key, a duplicate of the record already
// there, or its replacement. The database daemon counts re-deliveries
// and genuine updates by it.
func (db *DB) Put(r JobRecord) (grouped.Class, error) {
	if err := r.Validate(); err != nil {
		return grouped.Accepted, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recs.Writable().Insert(&r), nil
}

// Len returns the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recs.Rows().Len()
}

// Job returns all node records of one job step, sorted by node.
func (db *DB) Job(jobID, stepID string) []JobRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []JobRecord
	db.recs.Rows().Each(grouped.Group{Job: jobID, Step: stepID}, func(r *JobRecord) { out = append(out, *r) })
	return out
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

// summarize aggregates one job step, summing in node order; a step
// with no records summarizes to zero Nodes. Callers hold the lock.
func (db *DB) summarize(k grouped.Group) JobSummary {
	s := JobSummary{JobID: k.Job, StepID: k.Step}
	s.Nodes = db.recs.Rows().Each(k, func(r *JobRecord) {
		if r.TimeSec > s.TimeSec {
			s.TimeSec = r.TimeSec
		}
		s.EnergyJ += r.EnergyJ
		s.AvgPower += r.AvgPower
	})
	if s.Nodes > 0 {
		s.AvgPower /= float64(s.Nodes)
	}
	return s
}

// Summarize aggregates one job step, summing in node order. It
// returns an error when the job has no records.
func (db *DB) Summarize(jobID, stepID string) (JobSummary, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.summarize(grouped.Group{Job: jobID, Step: stepID})
	if s.Nodes == 0 {
		return JobSummary{}, fmt.Errorf("eard: no records for job %s step %s", jobID, stepID)
	}
	return s, nil
}

// Summaries aggregates every job step, in (job, step) order.
func (db *DB) Summaries() []JobSummary {
	db.mu.RLock()
	defer db.mu.RUnlock()
	groups := db.recs.Rows().Groups()
	out := make([]JobSummary, len(groups))
	for i, k := range groups {
		out[i] = db.summarize(k)
	}
	return out
}

// Jobs lists distinct (job, step) pairs, sorted.
func (db *DB) Jobs() [][2]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	groups := db.recs.Rows().Groups()
	out := make([][2]string, len(groups))
	for i, k := range groups {
		out[i] = [2]string{k.Job, k.Step}
	}
	return out
}

// Records returns every stored record sorted by (job, step, node):
// the canonical dump order shared by state files and the federation
// tier's shard merges.
func (db *DB) Records() []JobRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recs.Rows().Append(make([]JobRecord, 0, db.recs.Rows().Len()))
}

// Pinned is a database's rows as they stood when pinned (Pin).
type Pinned = grouped.Pinned[JobRecord, string]

// Pin returns the database's rows for reading without its lock until
// Release, in Records' order: a reader that walks them holds up no
// writer (grouped.Shared).
func (db *DB) Pin() Pinned { return db.recs.Pin(&db.mu) }

// AppendNodes appends the records of the given nodes, a sorted list,
// to dst in Records' order and returns the extended slice.
func (db *DB) AppendNodes(dst []JobRecord, nodes []string) []JobRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.recs.Rows().Walk(func(r *JobRecord) {
		if _, ok := slices.BinarySearch(nodes, r.Node); ok {
			dst = append(dst, *r)
		}
	})
	return dst
}

// Clone returns a database holding what db holds that shares its
// storage until written (grouped.Store.Clone): the next of a series of
// read-only snapshots, built from the last. db must not be written
// afterwards.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &DB{recs: grouped.Share(db.recs.Rows().Clone())}
}

// WriteFile replaces the file at path with what write produces, through
// a temporary file beside it that is synced and then renamed over path:
// a crash mid-save leaves the previous file intact and loadable. The
// directory is synced after the rename, which makes the rename durable.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // the write's error is the one to report
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
