package report

import (
	"encoding/csv"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failure") }

func sample() Table {
	t := Table{
		Title:   "Sample",
		Columns: []string{"name", "value"},
	}
	_ = t.AddRow("alpha", "1")
	_ = t.AddRow("a,b", "2.50")
	return t
}

func TestAddRowArity(t *testing.T) {
	tab := Table{Columns: []string{"a", "b"}}
	if err := tab.AddRow("only one"); err == nil {
		t.Error("expected error for short row")
	}
	if err := tab.AddRow("1", "2", "3"); err == nil {
		t.Error("expected error for long row")
	}
	if err := tab.AddRow("1", "2"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

func TestRenderAlignment(t *testing.T) {
	out := sample().String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Sample" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule = %q", lines[2])
	}
	// Columns align: "value" column starts at the same offset on every
	// row.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Errorf("row too short: %q", l)
			continue
		}
	}
	if !strings.Contains(out, "a,b") {
		t.Error("cell content lost")
	}
}

func TestRenderWithoutTitle(t *testing.T) {
	tab := Table{Columns: []string{"x"}}
	_ = tab.AddRow("1")
	out := tab.String()
	if strings.HasPrefix(out, "\n") {
		t.Error("leading newline without title")
	}
	if !strings.HasPrefix(out, "x") {
		t.Errorf("output = %q", out)
	}
}

func TestCSVQuoting(t *testing.T) {
	var b strings.Builder
	if err := sample().CSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"a,b",2.50` {
		t.Errorf("quoted row = %q", lines[2])
	}
}

// TestCSVReadsBack: every cell, a quote, a comma and a line break in
// it included, reads back unchanged through encoding/csv.
func TestCSVReadsBack(t *testing.T) {
	tab := Table{Columns: []string{"name", `say "hi"`}}
	for _, row := range [][]string{{"a,b", "2.50"}, {`"quoted"`, "two\nlines"}, {" lead", ""}} {
		if err := tab.AddRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not read back: %v\n%s", err, b.String())
	}
	if want := append([][]string{tab.Columns}, tab.Rows...); !reflect.DeepEqual(got, want) {
		t.Errorf("read back %q, want %q", got, want)
	}
}

func TestWriterErrorsPropagate(t *testing.T) {
	if err := sample().Render(failWriter{}); err == nil {
		t.Error("render error not propagated")
	}
	if err := sample().CSV(failWriter{}); err == nil {
		t.Error("CSV error not propagated")
	}
}

func TestPctMatchesFormatFloat(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 12.3456, -12.3456, -0.001, -0.005, 0.005, 0.015,
		0.125, 2.675, 1.005, 99.995, 1e9, -1e9, 1e-9, 1e21, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		if got, want := Pct(v), strconv.FormatFloat(v, 'f', 2, 64)+"%"; got != want {
			t.Errorf("Pct(%v) = %q, want %q", v, got, want)
		}
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = Pct(-12.3456) }); n != 1 || s != "-12.35%" {
		t.Errorf("Pct = %q in %v allocations, want 1", s, n)
	}
}

func TestFormatters(t *testing.T) {
	if F(2.456, 2) != "2.46" {
		t.Errorf("F = %q", F(2.456, 2))
	}
	if Pct(12.3456) != "12.35%" {
		t.Errorf("Pct = %q", Pct(12.3456))
	}
	if GHz(2.4) != "2.40" {
		t.Errorf("GHz = %q", GHz(2.4))
	}
	if GHz(1.987) != "1.99" {
		t.Errorf("GHz = %q", GHz(1.987))
	}
}

// TestRowMatchesFormatters: every numeric cell reads as the formatter
// of the same name writes it, label cells are kept as given, and cells
// land in the room the row was started on.
func TestRowMatchesFormatters(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 12.3456, -0.005, 2.675, 99.995, 1e9, 1e21,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, v := range vals {
		room := make([]string, 6)
		got := NewRow(room).Label("x").F(v, 0).F(v, 3).GHz(v).Pct(v).Int(i - 3).Cells()
		want := []string{"x", F(v, 0), F(v, 3), GHz(v), Pct(v), strconv.Itoa(i - 3)}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row of %v = %q, want %q", v, got, want)
		}
		if &got[0] != &room[0] {
			t.Errorf("row of %v left the room it was started on", v)
		}
	}
	if got := NewRow(nil).Int(-42).Int(7).Cells(); !reflect.DeepEqual(got, []string{"-42", "7"}) {
		t.Errorf("ints = %q", got)
	}
	if got := NewRow(nil).Label("a").Label("").Cells(); !reflect.DeepEqual(got, []string{"a", ""}) {
		t.Errorf("labels = %q", got)
	}
}

// TestRowPastItsText: a cell wider than the text left, and cells past
// the first rowCells, are strings of their own and still read right,
// before and after cells that fit.
func TestRowPastItsText(t *testing.T) {
	r := NewRow(nil)
	var want []string
	for i := range rowCells + 4 {
		v := float64(i) + 0.5
		if i == 3 {
			v = 1e300 // 301 digits before the point: past the whole text
		}
		r.Pct(v).Label("l")
		want = append(want, Pct(v), "l")
	}
	if got := r.Cells(); !reflect.DeepEqual(got, want) {
		t.Errorf("row = %q\nwant %q", got, want)
	}
	long := strings.Repeat("9", rowText-2)
	v, _ := strconv.ParseFloat(long, 64)
	got := NewRow(nil).F(1, 0).F(v, 0).F(2, 0).Cells()
	if want := []string{"1", F(v, 0), "2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("row = %q, want %q", got, want)
	}
}

// TestRowAllocatesOnce: a row of k numeric cells, started on room for
// them, costs one allocation (its text); a row of labels costs none.
func TestRowAllocatesOnce(t *testing.T) {
	room := make([]string, 7)
	var got []string
	for k := 1; k < len(room); k++ {
		n := testing.AllocsPerRun(100, func() {
			r := NewRow(room).Label("label")
			for i := 1; i < k; i++ {
				r.Pct(-12.3456 * float64(i))
			}
			got = r.GHz(2.4).Cells()
		})
		if n != 1 || got[k] != "2.40" {
			t.Errorf("a row of %d numeric cells: %v allocations (last cell %q), want 1", k, n, got[k])
		}
	}
	if n := testing.AllocsPerRun(100, func() { got = NewRow(room).Label("a").Label("b").Cells() }); n != 0 {
		t.Errorf("a row of labels: %v allocations, want 0", n)
	}
}

// oldRender is the renderer Render replaced, kept as its oracle: a
// string built cell by cell, padding made by strings.Repeat.
func oldRender(t Table) string {
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
	return b.String()
}

// shapes are tables Render must write as oldRender did: no rows, no
// title, a cell wider than any run of padding, more than 16 columns,
// and cells a CSV quotes.
func shapes() []Table {
	wide := Table{Title: "wide"}
	for i := range 23 {
		wide.Columns = append(wide.Columns, "c"+strconv.Itoa(i))
	}
	for r := range 3 {
		row := make([]string, len(wide.Columns))
		for i := range row {
			row[i] = strings.Repeat("x", (r*7+i)%5)
		}
		wide.Rows = append(wide.Rows, row)
	}
	return []Table{
		sample(),
		{Title: "no rows", Columns: []string{"a", "bb", "ccc"}},
		{Columns: []string{"x"}, Rows: [][]string{{"1"}, {""}}},
		{Title: "long cell", Columns: []string{"k", "v"},
			Rows: [][]string{{strings.Repeat("y", 1000), "1"}, {"z", strings.Repeat("w", 513)}}},
		wide,
		{Title: "quoted", Columns: []string{"name", `say "hi"`},
			Rows: [][]string{{"a,b", "2.50"}, {`"quoted"`, "two\nlines"}, {" lead", ""}}},
	}
}

func TestRenderMatchesOldRenderer(t *testing.T) {
	for _, tab := range shapes() {
		var b strings.Builder
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		if want := oldRender(tab); b.String() != want || tab.String() != want {
			t.Errorf("%q renders\n%s\nwant\n%s", tab.Title, b.String(), want)
		}
	}
}

// TestRenderAllocatesOnce: a table of any shape is one allocation, its
// text.
func TestRenderAllocatesOnce(t *testing.T) {
	for _, tab := range shapes() {
		if n := testing.AllocsPerRun(100, func() { _ = tab.Render(io.Discard) }); n != 1 {
			t.Errorf("%q (%d columns, %d rows): %v allocations, want 1", tab.Title, len(tab.Columns), len(tab.Rows), n)
		}
	}
}

// TestCSVOfBuiltRows: a table of builder-made rows writes the same CSV,
// byte for byte, as one of the same strings made by the formatters.
func TestCSVOfBuiltRows(t *testing.T) {
	cols := []string{"label", "F", "GHz", "pct", "int"}
	built, made := Table{Columns: cols}, Table{Columns: cols}
	for i, v := range []float64{-1.005, 0, 2.675, 1e21, math.NaN()} {
		label := []string{"a,b", `"q"`, "two\nlines", " lead", ""}[i]
		if err := built.AddRow(NewRow(make([]string, len(cols))).Label(label).F(v, 3).GHz(v).Pct(v).Int(i - 2).Cells()...); err != nil {
			t.Fatal(err)
		}
		if err := made.AddRow(label, F(v, 3), GHz(v), Pct(v), strconv.Itoa(i-2)); err != nil {
			t.Fatal(err)
		}
	}
	var a, b strings.Builder
	if err := built.CSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := made.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("CSV of built rows\n%s\nwant\n%s", a.String(), b.String())
	}
}

// TestRenderReadsRowsToTheTableWidth: a row set without AddRow is read
// up to the table's columns, a short one padded with blank cells.
func TestRenderReadsRowsToTheTableWidth(t *testing.T) {
	tab := Table{Columns: []string{"a", "b"}, Rows: [][]string{{"x"}, {"x", "y", "zzz"}}}
	if got, want := tab.String(), "a  b\n-----\nx   \nx  y\n"; got != want {
		t.Errorf("renders %q, want %q", got, want)
	}
}
