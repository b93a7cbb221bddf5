package experiments

import (
	"goear/internal/par"
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

// rowsOf is one row per name, in name order.
func rowsOf(names []string, row func(name string) runCfg) []runCfg {
	rows := make([]runCfg, len(names))
	for i, name := range names {
		rows[i] = row(name)
	}
	return rows
}

// sweep is a table whose rows are one configured run each, measured
// against its workload's nominal baseline (Context.Compare): Tables II,
// V and VII, Figs. 3-8, the ablations, the baselines and the
// future-work study. cells renders one row from its run and that
// comparison.
type sweep struct {
	title   string
	columns []string
	rows    []runCfg
	cells   func(runCfg, Comparison) []string
}

// bars is a sweep with the bar figures' columns: penalties and savings
// plus the two average frequencies (Figs. 3-6, ablations A2-A4, the
// baselines and future work). first heads the label column.
func bars(title, first string, rows []runCfg) sweep {
	return sweep{title, []string{first, "time penalty", "DC power saving",
		"energy saving", "avg CPU (GHz)", "avg IMC (GHz)"}, rows,
		func(r runCfg, d Comparison) []string {
			return []string{r.label, report.Pct(d.TimePenaltyPct), report.Pct(d.PowerSavingPct),
				report.Pct(d.EnergySavingPct), report.GHz(d.AvgCPUGHz), report.GHz(d.AvgIMCGHz)}
		}}
}

// ratios is a sweep with penalties and savings plus energy saving per
// unit of time penalty (Figs. 7 and 8). first heads the label column.
func ratios(title, first string, rows []runCfg) sweep {
	return sweep{title, []string{first, "time penalty", "DC power saving",
		"energy saving", "eff. ratio"}, rows,
		func(r runCfg, d Comparison) []string {
			ratio := "-"
			if d.EfficiencyRatio != 0 {
				ratio = report.F(d.EfficiencyRatio, 2)
			}
			return []string{r.label, report.Pct(d.TimePenaltyPct), report.Pct(d.PowerSavingPct),
				report.Pct(d.EnergySavingPct), ratio}
		}}
}

// sweeps renders the tables in order. The rows of all of them resolve
// through Compare in one fan-out, each rendered on the worker that
// resolved it, so a multi-table artefact keeps the worker pool busy
// across its tables.
func (c *Context) sweeps(ss ...sweep) ([]report.Table, error) {
	n := 0
	for _, s := range ss {
		n += len(s.rows)
	}
	cells := make([][]string, n)
	err := par.ForEach(c.workers(), n, func(i int) error {
		k, j := 0, i // row i of the flattened tables is row j of table k
		for j >= len(ss[k].rows) {
			j -= len(ss[k].rows)
			k++
		}
		r := ss[k].rows[j]
		d, err := c.Compare(r.name, r.opt)
		if err != nil {
			return err
		}
		cells[i] = ss[k].cells(r, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]report.Table, len(ss))
	for i, s := range ss {
		// A table's rows are its stretch of cells: AddRow checks each
		// row's width and appends it in place.
		out[i] = report.Table{Title: s.title, Columns: s.columns, Rows: cells[:0:len(s.rows)]}
		for _, row := range cells[:len(s.rows)] {
			if err := out[i].AddRow(row...); err != nil {
				return nil, err
			}
		}
		cells = cells[len(s.rows):]
	}
	return out, nil
}
