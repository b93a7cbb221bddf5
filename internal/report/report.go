// Package report renders experiment results as fixed-width text tables
// (the form the paper's tables take) and as CSV for plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; cells beyond the column count are rejected.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as RFC 4180 comma-separated values.
func (t Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// String renders to a string (for tests and logs).
func (t Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// F formats a float with the given number of decimals, trimming to a
// compact form.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// Pct formats a percentage with two decimals and a % sign. It formats
// into a stack buffer, so the string is its only allocation.
func Pct(v float64) string {
	var buf [32]byte
	return string(append(strconv.AppendFloat(buf[:0], v, 'f', 2, 64), '%'))
}

// GHz formats a frequency in GHz with two decimals (the paper's table
// precision).
func GHz(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}
