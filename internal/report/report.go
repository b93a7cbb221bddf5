// Package report renders experiment results as fixed-width text tables
// (the form the paper's tables take) and as CSV for plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
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

// Render writes the table as aligned text: the title, the header, a
// rule of dashes and the rows, every cell padded to its column's widest
// cell and two spaces between cells. Every row is as long as the
// header and the rule one dash longer, so the text is sized before it
// is written and filled a column at a time: a table of any shape costs
// one allocation. A row is read up to the table's width; a short row
// renders blank cells.
func (t Table) Render(w io.Writer) error {
	_, err := w.Write(t.text())
	return err
}

// text is the rendered table.
func (t Table) text() []byte {
	row := 0 // a row's cells, padded, two spaces apart
	for i := range t.Columns {
		row += t.width(i) + 2
	}
	row = max(row-2, 0)
	rule := row + 1
	title := 0
	if t.Title != "" {
		title = len(t.Title) + 1
	}
	rows := title + row + 1 + rule + 1 // where the rows' lines start
	b := make([]byte, rows+len(t.Rows)*(row+1))
	for i := range b {
		b[i] = ' '
	}
	copy(b, t.Title)
	for i := range rule {
		b[title+row+1+i] = '-'
	}
	if title > 0 {
		b[title-1] = '\n'
	}
	b[title+row] = '\n'
	b[rows-1] = '\n'
	for r := range t.Rows {
		b[rows+r*(row+1)+row] = '\n'
	}
	at := 0 // the column's offset in every line
	for i, c := range t.Columns {
		copy(b[title+at:], c)
		for r, cells := range t.Rows {
			if i < len(cells) {
				copy(b[rows+r*(row+1)+at:], cells[i])
			}
		}
		at += t.width(i) + 2
	}
	return b
}

// width is column i's width: its widest cell, the header's included.
func (t Table) width(i int) int {
	wd := len(t.Columns[i])
	for _, row := range t.Rows {
		if i < len(row) && len(row[i]) > wd {
			wd = len(row[i])
		}
	}
	return wd
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
	return string(t.text())
}

// F formats a float with the given number of decimals, trimming to a
// compact form. F, Pct and GHz each cost a string: a table's rows are
// built with Row, which costs one a row.
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

// A Row cuts its numeric cells from one string of at most rowText
// bytes, and keeps their places for the first rowCells cells. A
// numeric cell past either is a string of its own.
const (
	rowCells = 16
	rowText  = 256
)

// Row builds one row of a table. Label cells are kept as given; numeric
// cells (F, GHz, Pct, Int) are appended as text into one buffer, and
// Cells converts that buffer to a string once and cuts each numeric
// cell from it. A row of any number of numeric cells then costs one
// allocation, where formatting each cell cost one a cell. An F, GHz
// or Pct cell reads as the function of the same name formats it, an
// Int cell as strconv.Itoa does.
//
// A Row is started with NewRow and used up in the function that
// started it, so it lives on that function's stack.
type Row struct {
	cells []string
	end   [rowCells]uint16 // where each cell's text ends; a label's adds none
	text  [rowText]byte
	n     int // text used
}

// NewRow starts a row on the room of cells: Cells returns the row in
// cells' backing array when it has room for every cell, as a row cut
// from a table's slab does.
func NewRow(cells []string) *Row {
	return &Row{cells: cells[:0]}
}

// Label adds a cell as given.
func (r *Row) Label(s string) *Row {
	r.cells = append(r.cells, s)
	return r.mark()
}

// F adds v with the given number of decimals.
func (r *Row) F(v float64, decimals int) *Row {
	return r.num(strconv.AppendFloat(r.room(), v, 'f', decimals, 64))
}

// GHz adds a frequency in GHz with two decimals.
func (r *Row) GHz(v float64) *Row {
	return r.F(v, 2)
}

// Pct adds a percentage with two decimals and a % sign.
func (r *Row) Pct(v float64) *Row {
	return r.num(append(strconv.AppendFloat(r.room(), v, 'f', 2, 64), '%'))
}

// Int adds an integer.
func (r *Row) Int(v int) *Row {
	return r.num(strconv.AppendInt(r.room(), int64(v), 10))
}

// room is the unused text, to append a cell to.
func (r *Row) room() []byte {
	return r.text[r.n:r.n]
}

// num adds the numeric cell b, just appended to room: it stays in the
// text if it fit there and the cell's place can be kept, and is a
// string of its own otherwise.
func (r *Row) num(b []byte) *Row {
	if len(r.cells) < rowCells && len(b) <= rowText-r.n {
		r.n += len(b)
		r.cells = append(r.cells, "") // cut by Cells
	} else {
		r.cells = append(r.cells, string(b))
	}
	return r.mark()
}

// mark keeps where the text stands after the cell just added.
func (r *Row) mark() *Row {
	if i := len(r.cells) - 1; i < rowCells {
		r.end[i] = uint16(r.n)
	}
	return r
}

// Cells returns the row: the text converted to one string, and each
// numeric cell in the text cut from it.
func (r *Row) Cells() []string {
	if r.n == 0 {
		return r.cells
	}
	s := string(r.text[:r.n])
	start := 0
	for i := range min(len(r.cells), rowCells) {
		if e := int(r.end[i]); e > start {
			r.cells[i] = s[start:e]
			start = e
		}
	}
	return r.cells
}
