package experiments

import (
	"strconv"

	"goear/internal/report"
	"goear/internal/sim"
)

// tabulate renders a table with columns of its own: one row per item,
// rows in item order, each built by cells in a fan of the items into
// its room in the table's slab. cells asks for its runs through f.
func tabulate[T any](c *Context, title string, columns []string, items []T, cells func(f fan, room []string, item T) ([]string, error)) ([]report.Table, error) {
	rows := slab(1, func(int) (int, int) { return len(items), len(columns) })
	f := c.fan(len(items))
	err := f.rows(func(i int) error {
		row, err := cells(f, rows[i], items[i])
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	t, err := table(title, columns, rows)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// slab returns empty rows with room for their cells, all cut from one
// array: table k of tables, in order, has the rows and width shape
// gives it. A report.Row started on a row's room fills it in place, so
// the tables' rows cost two allocations, not one each.
func slab(tables int, shape func(k int) (rows, width int)) [][]string {
	n, size := 0, 0
	for k := range tables {
		r, w := shape(k)
		n, size = n+r, size+r*w
	}
	cells, rows := make([]string, size), make([][]string, 0, n)
	for k := range tables {
		r, w := shape(k)
		for range r {
			rows = append(rows, cells[:0:w])
			cells = cells[w:]
		}
	}
	return rows
}

// table is a titled table of rows, each checked against the columns'
// count and kept in place.
func table(title string, columns []string, rows [][]string) (report.Table, error) {
	t := report.Table{Title: title, Columns: columns, Rows: rows[:0:len(rows)]}
	for _, row := range rows {
		if err := t.AddRow(row...); err != nil {
			return report.Table{}, err
		}
	}
	return t, nil
}

// runCfg names one configured run of a workload: one row of a sweep.
type runCfg struct {
	label string
	name  string
	opt   sim.Options
}

// label is prefix, v with prec decimals and suffix: what fmt's %.*f
// between the two prints, in the string's one allocation.
func label(prefix string, v float64, prec int, suffix string) string {
	var buf [128]byte
	b := strconv.AppendFloat(append(buf[:0], prefix...), v, 'f', prec, 64)
	return string(append(b, suffix...))
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
// against its workload's nominal baseline (compare): Tables II,
// V and VII, Figs. 3-8, the ablations, the baselines and the
// future-work study. cells builds one row from its run and that
// comparison, into the row's room.
type sweep struct {
	title   string
	columns []string
	rows    []runCfg
	cells   func(room []string, r runCfg, d Comparison) []string
}

// bars is a sweep with the bar figures' columns: penalties and savings
// plus the two average frequencies (Figs. 3-6, ablations A2-A4, the
// baselines and future work). first heads the label column.
func bars(title, first string, rows []runCfg) sweep {
	return sweep{title, []string{first, "time penalty", "DC power saving",
		"energy saving", "avg CPU (GHz)", "avg IMC (GHz)"}, rows,
		func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.label).Pct(d.TimePenaltyPct).Pct(d.PowerSavingPct).
				Pct(d.EnergySavingPct).GHz(d.AvgCPUGHz).GHz(d.AvgIMCGHz).Cells()
		}}
}

// ratios is a sweep with penalties and savings plus energy saving per
// unit of time penalty (Figs. 7 and 8). first heads the label column.
func ratios(title, first string, rows []runCfg) sweep {
	return sweep{title, []string{first, "time penalty", "DC power saving",
		"energy saving", "eff. ratio"}, rows,
		func(room []string, r runCfg, d Comparison) []string {
			row := report.NewRow(room).Label(r.label).Pct(d.TimePenaltyPct).Pct(d.PowerSavingPct).
				Pct(d.EnergySavingPct)
			if d.EfficiencyRatio == 0 {
				return row.Label("-").Cells()
			}
			return row.F(d.EfficiencyRatio, 2).Cells()
		}}
}

// sweeps renders the tables in order. The rows of all of them resolve
// through compare in one fan, each built on the worker that resolved
// it into its room in one slab for every table, so a multi-table
// artefact keeps the worker pool busy across its tables.
func (c *Context) sweeps(ss ...sweep) ([]report.Table, error) {
	rows := slab(len(ss), func(k int) (int, int) { return len(ss[k].rows), len(ss[k].columns) })
	f := c.fan(len(rows))
	err := f.rows(func(i int) error {
		k, j := 0, i // row i of the flattened tables is row j of table k
		for j >= len(ss[k].rows) {
			j -= len(ss[k].rows)
			k++
		}
		r := ss[k].rows[j]
		d, err := f.compare(r.name, r.opt)
		if err != nil {
			return err
		}
		rows[i] = ss[k].cells(rows[i], r, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]report.Table, len(ss))
	at := 0
	for i, s := range ss {
		if out[i], err = table(s.title, s.columns, rows[at:at+len(s.rows)]); err != nil {
			return nil, err
		}
		at += len(s.rows)
	}
	return out, nil
}
