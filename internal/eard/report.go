package eard

import (
	"sort"
)

// AppAggregate summarises all recorded runs of one application (the
// ereport view: where does the cluster's energy go, and how do the
// policies compare per application).
type AppAggregate struct {
	App       string  `json:"app"`
	Jobs      int     `json:"jobs"`
	NodeHours float64 `json:"node_hours"`
	EnergyKJ  float64 `json:"energy_kj"`
	AvgPowerW float64 `json:"avg_power_w"` // node-hour-weighted
}

// PolicyAggregate summarises recorded runs per policy.
type PolicyAggregate struct {
	Policy    string  `json:"policy"`
	Jobs      int     `json:"jobs"`
	NodeHours float64 `json:"node_hours"`
	EnergyKJ  float64 `json:"energy_kj"`
	AvgPowerW float64 `json:"avg_power_w"`
}

// usage is what both reports accumulate per label.
type usage struct {
	jobs                int
	nodeHours, energyKJ float64
	avgPowerW           float64
}

// usageBy totals the database per label(record), walking the records
// in canonical order so the float sums do not depend on map order.
func (db *DB) usageBy(label func(*JobRecord) string) map[string]usage {
	acc := map[string]usage{}
	jobsSeen := map[[3]string]bool{}
	for _, r := range db.Records() {
		l := label(&r)
		u := acc[l]
		if js := [3]string{l, r.JobID, r.StepID}; !jobsSeen[js] {
			jobsSeen[js] = true
			u.jobs++
		}
		u.nodeHours += r.TimeSec / 3600
		u.energyKJ += r.EnergyJ / 1e3
		acc[l] = u
	}
	for l, u := range acc {
		if u.nodeHours > 0 {
			u.avgPowerW = u.energyKJ * 1e3 / (u.nodeHours * 3600)
			acc[l] = u
		}
	}
	return acc
}

// ByApp aggregates the database per application, sorted by descending
// energy (the consumers a site operator looks at first).
func (db *DB) ByApp() []AppAggregate {
	byApp := db.usageBy(func(r *JobRecord) string { return r.App })
	out := make([]AppAggregate, 0, len(byApp))
	for app, u := range byApp {
		out = append(out, AppAggregate{app, u.jobs, u.nodeHours, u.energyKJ, u.avgPowerW})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyKJ != out[j].EnergyKJ {
			return out[i].EnergyKJ > out[j].EnergyKJ
		}
		return out[i].App < out[j].App
	})
	return out
}

// ByPolicy aggregates the database per energy policy, sorted by name.
func (db *DB) ByPolicy() []PolicyAggregate {
	byPolicy := db.usageBy(func(r *JobRecord) string { return r.Policy })
	out := make([]PolicyAggregate, 0, len(byPolicy))
	for pol, u := range byPolicy {
		out = append(out, PolicyAggregate{pol, u.jobs, u.nodeHours, u.energyKJ, u.avgPowerW})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}
