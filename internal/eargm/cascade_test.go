package eargm

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

// slicesSource is a scripted PowerSource: each Update reads the next
// row, sticking at the last.
type slicesSource struct {
	rows [][]float64
	i    int
}

func (s *slicesSource) NodePowers() []float64 {
	row := s.rows[s.i]
	if s.i < len(s.rows)-1 {
		s.i++
	}
	return row
}

func newCascadeForTest(t *testing.T, budget float64, islands []Island) *Cascade {
	t.Helper()
	return newCascadeWith(t, budget, nil, islands)
}

func newCascadeWith(t *testing.T, budget float64, set *telemetry.Set, islands []Island) *Cascade {
	t.Helper()
	c, err := NewCascade(CascadeConfig{
		BudgetW: budget,
		Island:  Config{MaxCapPstate: 8, Telemetry: set},
	}, islands)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gauges reads every series of set's registry, keyed by name and
// labels.
func gauges(t *testing.T, set *telemetry.Set) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := set.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64, len(samples))
	for _, s := range samples {
		vals[s.Name+s.Labels] = s.Value
	}
	return vals
}

// islandBudgets reads the apportioned budgets off the island gauges,
// in the order names gives.
func islandBudgets(t *testing.T, set *telemetry.Set, names ...string) []float64 {
	t.Helper()
	vals := gauges(t, set)
	out := make([]float64, len(names))
	for i, name := range names {
		out[i] = vals[metricGMIslandBudget+`{island="`+name+`"}`]
	}
	return out
}

// drive runs steps control intervals from t=0 and returns the caps of
// each, one row per interval in island order.
func drive(t *testing.T, c *Cascade, steps int) [][]int {
	t.Helper()
	rows := make([][]int, steps)
	for i := range rows {
		caps, err := c.Update(float64(i) * c.Interval())
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = caps
	}
	return rows
}

func TestCascadeApportionsBudgetBySumExactly(t *testing.T) {
	set := telemetry.NewSet()
	c := newCascadeWith(t, 1000, set, []Island{
		{Name: "i0", Src: &slicesSource{rows: [][]float64{{300, 300}}}},
		{Name: "i1", Src: &slicesSource{rows: [][]float64{{200}}}},
		{Name: "i2", Src: &slicesSource{rows: [][]float64{{}}}},
	})
	if _, err := c.Update(0); err != nil {
		t.Fatal(err)
	}
	budgets := islandBudgets(t, set, "i0", "i1", "i2")
	total := 0.0
	for _, b := range budgets {
		total += b
		if b <= 0 {
			t.Fatalf("island budget not positive: %v", budgets)
		}
	}
	if math.Abs(total-1000) > 1e-9 {
		t.Fatalf("budgets %v sum to %g, want the cluster budget", budgets, total)
	}
	// Reserve 0.2 of 1000 split 3 ways = 66.66...; pool 800 split
	// 600:200:0 over a draw of 800.
	want := []float64{1000*0.2/3 + 800*600/800.0, 1000*0.2/3 + 800*200/800.0, 1000 * 0.2 / 3}
	for i := range want {
		if math.Abs(budgets[i]-want[i]) > 1e-9 {
			t.Fatalf("budgets = %v, want %v", budgets, want)
		}
	}
	// The idle island keeps its reserve share even with zero draw.
	if budgets[2] <= 0 {
		t.Fatalf("idle island starved: %v", budgets)
	}
}

func TestCascadeZeroDrawSplitsEqually(t *testing.T) {
	set := telemetry.NewSet()
	c := newCascadeWith(t, 900, set, []Island{
		{Name: "i0", Src: &slicesSource{rows: [][]float64{{}}}},
		{Name: "i1", Src: &slicesSource{rows: [][]float64{{}}}},
		{Name: "i2", Src: &slicesSource{rows: [][]float64{{}}}},
	})
	if _, err := c.Update(0); err != nil {
		t.Fatal(err)
	}
	budgets := islandBudgets(t, set, "i0", "i1", "i2")
	for _, b := range budgets {
		if math.Abs(b-300) > 1e-9 {
			t.Fatalf("budgets = %v, want equal thirds", budgets)
		}
	}
}

func TestCascadeCapsOverloadedIslandOnly(t *testing.T) {
	// Island 0 draws far over any fair share; island 1 stays modest.
	hot := &slicesSource{rows: [][]float64{{400, 400, 400}}}
	cool := &slicesSource{rows: [][]float64{{100}}}
	set := telemetry.NewSet()
	c := newCascadeWith(t, 800, set, []Island{
		{Name: "hot", Src: hot},
		{Name: "cool", Src: cool},
	})
	trace := drive(t, c, 6)
	final := trace[len(trace)-1]
	if final[0] == 0 {
		t.Errorf("hot island left uncapped: trace %v", trace)
	}
	if final[1] != 0 {
		t.Errorf("cool island capped though under its share: trace %v budgets %v", trace, islandBudgets(t, set, "hot", "cool"))
	}
	vals := gauges(t, set)
	if got := []float64{vals[metricGMIslandCap+`{island="hot"}`], vals[metricGMIslandCap+`{island="cool"}`]}; got[0] != float64(final[0]) || got[1] != float64(final[1]) {
		t.Errorf("island cap gauges = %v, want %v", got, final)
	}
}

func TestCascadeDeterministicReplay(t *testing.T) {
	build := func() *Cascade {
		return newCascadeForTest(t, 700, []Island{
			{Name: "i0", Src: &slicesSource{rows: [][]float64{{300, 100}, {350, 120}, {200, 90}}}},
			{Name: "i1", Src: &slicesSource{rows: [][]float64{{260}, {280}, {240}}}},
		})
	}
	a, b := drive(t, build(), 8), drive(t, build(), 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cascade replay diverged:\n%v\n%v", a, b)
	}
}

func TestCascadeValidation(t *testing.T) {
	src := &slicesSource{rows: [][]float64{{}}}
	cases := []struct {
		name    string
		cfg     CascadeConfig
		islands []Island
	}{
		{"no budget", CascadeConfig{}, []Island{{Name: "a", Src: src}}},
		{"no islands", CascadeConfig{BudgetW: 100}, nil},
		{"unnamed", CascadeConfig{BudgetW: 100}, []Island{{Src: src}}},
		{"no source", CascadeConfig{BudgetW: 100}, []Island{{Name: "a"}}},
		{"dup name", CascadeConfig{BudgetW: 100}, []Island{{Name: "a", Src: src}, {Name: "a", Src: src}}},
		{"negative budget", CascadeConfig{BudgetW: -5}, []Island{{Name: "a", Src: src}}},
		{"NaN budget", CascadeConfig{BudgetW: math.NaN(), Island: Config{MaxCapPstate: 8}}, []Island{{Name: "a", Src: src}}},
		{"infinite budget", CascadeConfig{BudgetW: math.Inf(1), Island: Config{MaxCapPstate: 8}}, []Island{{Name: "a", Src: src}}},
		{"NaN interval", CascadeConfig{BudgetW: 100, Island: Config{MaxCapPstate: 8, IntervalSec: math.NaN()}}, []Island{{Name: "a", Src: src}}},
	}
	for _, tc := range cases {
		if _, err := NewCascade(tc.cfg, tc.islands); err == nil {
			t.Errorf("%s: NewCascade accepted invalid input", tc.name)
		}
	}
}

func TestSetBudget(t *testing.T) {
	m, err := New(Config{BudgetW: 500, MaxCapPstate: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if err := m.setBudget(w); err == nil {
			t.Errorf("budget %g accepted", w)
		}
	}
	if err := m.setBudget(750); err != nil {
		t.Fatal(err)
	}
	if got := m.cfg.BudgetW; got != 750 {
		t.Errorf("budget = %g after SetBudget(750)", got)
	}
}

func TestCascadeTelemetry(t *testing.T) {
	set := telemetry.NewSet()
	spans := trace.NewBuffer(0)
	c, err := NewCascade(CascadeConfig{
		BudgetW: 600,
		Island:  Config{MaxCapPstate: 8, Telemetry: set},
		Trace:   spans,
	}, []Island{
		{Name: "i0", Src: &slicesSource{rows: [][]float64{{400}}}},
		{Name: "i1", Src: &slicesSource{rows: [][]float64{{100}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(0); err != nil {
		t.Fatal(err)
	}
	vals := gauges(t, set)
	if got := vals[metricGMCascadeUpdates]; got != 1 {
		t.Errorf("cascade updates counter = %g, want 1", got)
	}
	b0 := vals[metricGMIslandBudget+`{island="i0"}`]
	b1 := vals[metricGMIslandBudget+`{island="i1"}`]
	if math.Abs(b0+b1-600) > 1e-9 || b0 <= b1 {
		t.Errorf("island budget gauges = %g, %g; want sum 600 with i0 larger", b0, b1)
	}
	if got := vals[metricGMIslandPower+`{island="i0"}`]; got != 400 {
		t.Errorf("island power gauge = %g, want 400", got)
	}
	var kinds []string
	for _, sp := range spans.Spans() {
		kinds = append(kinds, sp.Kind)
	}
	if want := []string{spanGMIsland, spanGMIsland, spanGMInterval}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("span kinds = %v, want %v", kinds, want)
	}
}
