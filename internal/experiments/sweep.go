package experiments

import (
	"goear/internal/report"
	"goear/internal/sim"
)

// tabulate renders a table with columns of its own: one row per item,
// the rows' cells computed on the worker pool, rows in item order.
func tabulate[T any](c *Context, title string, columns []string, items []T, cells func(T) ([]string, error)) ([]report.Table, error) {
	rows, err := mapRows(c, items, cells)
	if err != nil {
		return nil, err
	}
	t := report.Table{Title: title, Columns: columns, Rows: make([][]string, 0, len(rows))}
	for _, r := range rows {
		if err := t.AddRow(r...); err != nil {
			return nil, err
		}
	}
	return []report.Table{t}, nil
}

// runCfg names one configured run of a workload: one row of a sweep.
type runCfg struct {
	label string
	name  string
	opt   sim.Options
}

// compareAll resolves every configuration's Delta against its
// workload's baseline, in parallel, preserving order.
func (c *Context) compareAll(cfgs []runCfg) ([]sim.Delta, error) {
	return mapRows(c, cfgs, func(r runCfg) (sim.Delta, error) {
		return c.compare(r.name, r.opt)
	})
}

// layout is the column set a sweep is rendered with.
type layout int

const (
	// barFigure: penalties and savings plus the two average frequencies
	// (the bar figures, the ablations, the baselines).
	barFigure layout = iota
	// efficiencyRatio: penalties and savings plus energy saving per
	// unit of time penalty (Figs. 7 and 8).
	efficiencyRatio
)

func (l layout) columns(first string) []string {
	if l == efficiencyRatio {
		return []string{first, "time penalty", "DC power saving", "energy saving", "eff. ratio"}
	}
	return []string{first, "time penalty", "DC power saving",
		"energy saving", "avg CPU (GHz)", "avg IMC (GHz)"}
}

func (l layout) cells(label string, d sim.Delta) []string {
	if l == efficiencyRatio {
		ratio := "-"
		if d.EfficiencyRatio != 0 {
			ratio = report.F(d.EfficiencyRatio, 2)
		}
		return []string{label, report.Pct(d.TimePenaltyPct), report.Pct(d.PowerSavingPct),
			report.Pct(d.EnergySavingPct), ratio}
	}
	return []string{label, report.Pct(d.TimePenaltyPct), report.Pct(d.PowerSavingPct),
		report.Pct(d.EnergySavingPct), report.GHz(d.AvgCPUGHz), report.GHz(d.AvgIMCGHz)}
}

// sweep is one configuration-sweep table as a value: every row is a
// configured run reported against its workload's nominal baseline.
// Figs. 3-8, the baselines, the future-work study and ablations A2-A4
// are lists of these.
type sweep struct {
	title  string
	first  string // header of the label column
	layout layout
	rows   []runCfg
}

// sweeps renders the tables in order. The rows of all of them resolve
// in one fan-out, so a multi-table artefact keeps the worker pool busy
// across its tables.
func (c *Context) sweeps(ss ...sweep) ([]report.Table, error) {
	var all []runCfg
	for _, s := range ss {
		all = append(all, s.rows...)
	}
	ds, err := c.compareAll(all)
	if err != nil {
		return nil, err
	}
	out := make([]report.Table, len(ss))
	for i, s := range ss {
		t := report.Table{Title: s.title, Columns: s.layout.columns(s.first),
			Rows: make([][]string, 0, len(s.rows))}
		for j, r := range s.rows {
			if err := t.AddRow(s.layout.cells(r.label, ds[j])...); err != nil {
				return nil, err
			}
		}
		ds = ds[len(s.rows):]
		out[i] = t
	}
	return out, nil
}
