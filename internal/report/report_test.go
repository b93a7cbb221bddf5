package report

import (
	"encoding/csv"
	"errors"
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
