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

// ByApp aggregates the database per application, sorted by descending
// energy (the consumers a site operator looks at first).
func (db *DB) ByApp() []AppAggregate {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acc := map[string]*AppAggregate{}
	jobsSeen := map[string]map[[2]string]bool{}
	for k, g := range db.groups {
		js := [2]string{k.job, k.step}
		for _, r := range g.rows {
			a := acc[r.App]
			if a == nil {
				a = &AppAggregate{App: r.App}
				acc[r.App] = a
				jobsSeen[r.App] = map[[2]string]bool{}
			}
			if !jobsSeen[r.App][js] {
				jobsSeen[r.App][js] = true
				a.Jobs++
			}
			a.NodeHours += r.TimeSec / 3600
			a.EnergyKJ += r.EnergyJ / 1e3
		}
	}
	out := make([]AppAggregate, 0, len(acc))
	for _, a := range acc {
		if a.NodeHours > 0 {
			a.AvgPowerW = a.EnergyKJ * 1e3 / (a.NodeHours * 3600)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyKJ != out[j].EnergyKJ {
			return out[i].EnergyKJ > out[j].EnergyKJ
		}
		return out[i].App < out[j].App
	})
	return out
}

// PolicyAggregate summarises recorded runs per policy.
type PolicyAggregate struct {
	Policy    string  `json:"policy"`
	Jobs      int     `json:"jobs"`
	NodeHours float64 `json:"node_hours"`
	EnergyKJ  float64 `json:"energy_kj"`
	AvgPowerW float64 `json:"avg_power_w"`
}

// ByPolicy aggregates the database per energy policy, sorted by name.
func (db *DB) ByPolicy() []PolicyAggregate {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acc := map[string]*PolicyAggregate{}
	jobsSeen := map[string]map[[2]string]bool{}
	for k, g := range db.groups {
		js := [2]string{k.job, k.step}
		for _, r := range g.rows {
			a := acc[r.Policy]
			if a == nil {
				a = &PolicyAggregate{Policy: r.Policy}
				acc[r.Policy] = a
				jobsSeen[r.Policy] = map[[2]string]bool{}
			}
			if !jobsSeen[r.Policy][js] {
				jobsSeen[r.Policy][js] = true
				a.Jobs++
			}
			a.NodeHours += r.TimeSec / 3600
			a.EnergyKJ += r.EnergyJ / 1e3
		}
	}
	out := make([]PolicyAggregate, 0, len(acc))
	for _, a := range acc {
		if a.NodeHours > 0 {
			a.AvgPowerW = a.EnergyKJ * 1e3 / (a.NodeHours * 3600)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}
