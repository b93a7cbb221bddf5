package experiments

import (
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// parsePct converts a "12.34%" cell back to a float.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestIDsAndUnknown(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Errorf("IDs = %v (%d), want 19 experiments", ids, len(ids))
	}
	// The registry names each experiment once; IDs is the same set,
	// sorted (the order bench/ digests in), whatever the registry's order.
	order := Order()
	seen := map[string]bool{}
	for _, id := range order {
		if seen[id] {
			t.Errorf("registry lists %q twice", id)
		}
		seen[id] = true
	}
	sort.Strings(order)
	if !reflect.DeepEqual(ids, order) {
		t.Errorf("IDs = %v, want the registry's ids sorted %v", ids, order)
	}
	c := NewQuick()
	if _, err := c.Generate("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestREADMEListsRegistryOrder holds the README's experiment list to
// the registry: same ids, same (presentation) order.
func TestREADMEListsRegistryOrder(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const marker = "Experiment ids, in the order `-exp all` prints them:"
	_, rest, ok := strings.Cut(string(readme), marker)
	if !ok {
		t.Fatalf("README.md lost its experiment list (%q)", marker)
	}
	list, _, _ := strings.Cut(rest, ".")
	got := strings.Fields(strings.ReplaceAll(list, "`", ""))
	if want := Order(); !reflect.DeepEqual(got, want) {
		t.Errorf("README lists %v, registry order is %v", got, want)
	}
}

func TestTable2Structure(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("table2")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 kernels", len(tab.Rows))
	}
	// First row is BT-MZ.C with the published characteristics.
	r := tab.Rows[0]
	if r[0] != workload.BTMZC {
		t.Errorf("row 0 kernel = %q", r[0])
	}
	if tm := parseF(t, r[2]); tm < 140 || tm > 150 {
		t.Errorf("BT-MZ.C time = %v, want ~145", tm)
	}
	if p := parseF(t, r[5]); p < 325 || p > 340 {
		t.Errorf("BT-MZ.C power = %v, want ~332", p)
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("table3")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	for _, row := range tab.Rows {
		me := parsePct(t, row[5])   // energy saving ME
		eu := parsePct(t, row[6])   // energy saving ME+eU
		tpEU := parsePct(t, row[2]) // time penalty ME+eU
		// Explicit UFS must add savings over ME on every kernel
		// except DGEMM, where the paper also reports ~1% vs 0%.
		if row[0] != workload.DGEMM && eu < me {
			t.Errorf("%s: eUFS saving %.2f%% below ME %.2f%%", row[0], eu, me)
		}
		if tpEU > 3 {
			t.Errorf("%s: eUFS time penalty %.2f%%, want <= 3%% (paper max 1%%)", row[0], tpEU)
		}
	}
	// BT.CUDA: both configurations save ~10% (busy-wait host).
	for _, row := range tab.Rows {
		if row[0] == workload.BTCUDA {
			if me := parsePct(t, row[5]); me < 7 {
				t.Errorf("BT.CUDA ME saving = %.2f%%, want ~10%%", me)
			}
		}
	}
}

func TestTable4FrequencyDomains(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("table4")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 kernels x 2 domains)", len(tab.Rows))
	}
	byKernelDom := map[string][]string{}
	for _, row := range tab.Rows {
		byKernelDom[row[0]+"/"+row[1]] = row
	}
	// BT-MZ.C: CPU untouched everywhere; IMC lowered only by eUFS
	// (paper: 2.39 / 2.39 / 1.98).
	r := byKernelDom[workload.BTMZC+"/IMC"]
	if base, eu := parseF(t, r[2]), parseF(t, r[4]); !(base > 2.3 && eu < 2.15 && eu > 1.8) {
		t.Errorf("BT-MZ.C IMC row = %v, want 2.39 -> ~1.98", r)
	}
	// DGEMM: the AVX512 licence keeps CPU at ~2.2 in all configs.
	r = byKernelDom[workload.DGEMM+"/CPU"]
	for i := 2; i <= 4; i++ {
		if f := parseF(t, r[i]); f < 2.1 || f > 2.25 {
			t.Errorf("DGEMM CPU col %d = %v, want ~2.18", i, f)
		}
	}
	// BT.CUDA: hardware collapses the uncore under ME (paper 1.51).
	r = byKernelDom[workload.BTCUDA+"/IMC"]
	if me := parseF(t, r[3]); me > 1.8 {
		t.Errorf("BT.CUDA ME IMC = %v, want ~1.5", me)
	}
}

func TestFig1SweepShape(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d, want 2 (BT-MZ and LU)", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 13 {
			t.Errorf("%s: rows = %d, want 13 (2.4..1.2 GHz)", tab.Title, len(tab.Rows))
		}
		// Power saving grows monotonically as the uncore drops.
		prev := -100.0
		for _, row := range tab.Rows {
			ps := parsePct(t, row[1])
			if ps < prev-0.3 { // small tolerance for noise
				t.Errorf("%s: power saving not monotone at %s GHz (%v after %v)",
					tab.Title, row[0], ps, prev)
			}
			prev = ps
		}
		// At the lowest uncore, the memory-dependent kernel pays real
		// time; and for LU the GB/s penalty must be visible.
		last := tab.Rows[len(tab.Rows)-1]
		if strings.Contains(tab.Title, workload.LUDMotiv) {
			if tp := parsePct(t, last[3]); tp < 3 {
				t.Errorf("LU at 1.2GHz: time penalty %.2f%%, want substantial", tp)
			}
			if gp := parsePct(t, last[4]); gp < 3 {
				t.Errorf("LU at 1.2GHz: GB/s penalty %.2f%%, want substantial", gp)
			}
		}
	}
}

func TestFig4ThresholdMonotonicity(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("fig4")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Larger unc_policy_th must not reduce power savings.
	s0 := parsePct(t, tab.Rows[1][2])
	s2 := parsePct(t, tab.Rows[3][2])
	if s2 < s0-0.3 {
		t.Errorf("power saving at 2%% (%v) below 0%% threshold (%v)", s2, s0)
	}
	// Even at 0% threshold some saving remains (the paper's point —
	// though the magnitude is smaller here; see EXPERIMENTS.md on the
	// missing "free region" of the real silicon's latency response).
	if s0 < 0.3 {
		t.Errorf("unc_th 0%%: power saving %.2f%%, want > 0.3%%", s0)
	}
}

func TestRunCacheReuse(t *testing.T) {
	c := NewQuick()
	if _, err := c.Run(workload.BTMZC, sim.Options{Policy: "none", Seed: 100}); err != nil {
		t.Fatal(err)
	}
	n := c.Stats().Runs
	if _, err := c.Run(workload.BTMZC, sim.Options{Policy: "none", Seed: 100}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Runs; got != n {
		t.Errorf("cache grew on identical run: %d -> %d", n, got)
	}
	// Different thresholds are distinct entries.
	if _, err := c.Run(workload.BTMZC, sim.Options{Policy: "min_energy", CPUTh: 0.03, Seed: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(workload.BTMZC, sim.Options{Policy: "min_energy", CPUTh: 0.05, Seed: 100}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Runs != n+2 || got.RunsExecuted != got.Runs {
		t.Errorf("distinct options not cached separately: %+v", got)
	}
	// An explicit default is the unset value: one entry, one execution.
	if _, err := c.Run(workload.BTMZC, sim.Options{Policy: "min_energy_eufs", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	executed := c.Stats().RunsExecuted
	explicit := sim.Options{Policy: "min_energy_eufs", Seed: 3, CPUTh: policy.DefaultCPUPolicyTh,
		UncTh: policy.DefaultUncPolicyTh, SigChangeTh: policy.DefaultSigChangeTh, MinWindowSec: metrics.MinWindowSeconds}
	if _, err := c.Run(workload.BTMZC, explicit); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().RunsExecuted; got != executed {
		t.Errorf("run at explicit defaults executed again: %d -> %d runs", executed, got)
	}
}

// TestRunCacheKeepsOutputOptionsApart is the aliasing regression: the
// options that only add output (a trace, the decision log) are part of
// the key, so asking for them after the plain run does not return the
// plain run.
func TestRunCacheKeepsOutputOptionsApart(t *testing.T) {
	c := NewQuick()
	plain := sim.Options{Policy: "min_energy_eufs", Seed: 40}
	if _, err := c.Run(workload.BTCUDA, plain); err != nil {
		t.Fatal(err)
	}
	executed := c.Stats().RunsExecuted
	again := func(what string, o sim.Options) sim.Result {
		t.Helper()
		r, err := c.Run(workload.BTCUDA, o)
		if err != nil {
			t.Fatal(err)
		}
		executed++
		if got := c.Stats().RunsExecuted; got != executed {
			t.Fatalf("%s: %d runs executed, want %d (served from another configuration's entry)", what, got, executed)
		}
		return r
	}

	traced := plain
	traced.Trace = true
	if r := again("Trace", traced); len(r.Nodes[0].Trace) == 0 {
		t.Error("Trace after the untraced run: empty trace")
	}
	logged := plain
	logged.DecisionLog = true
	if r := again("DecisionLog", logged); len(r.Nodes[0].Decisions) == 0 {
		t.Error("DecisionLog after the plain run: no decisions")
	}
}

// fill sets v to a non-zero value of its type; seed varies it.
func fill(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x" + strconv.Itoa(seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed))
	case reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float64:
		v.SetFloat(float64(seed) / 8)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), seed)
		}
	default:
		t.Fatalf("fill: no rule for %s — teach the test this kind", v.Type())
	}
}

// TestRunKeyCoversOptions walks sim.Options by reflection so the next
// option cannot alias silently: in the key's copy of the options every
// pointer field but Model is nil, every other field either carries the
// caller's value or is one of the few that cannot change a result (a
// telemetry set among them), every other pointer option's pointee
// decides the key by value, and Model decides it by identity.
func TestRunKeyCoversOptions(t *testing.T) {
	neutral := map[string]bool{"Workers": true, "ReferenceStep": true, "Telemetry": true}
	// Model is compared by identity and a set is never compared, so
	// their contents are left alone.
	o := sim.Options{Model: &model.Model{}, Telemetry: telemetry.NewSet()}
	for v, i := reflect.ValueOf(&o).Elem(), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			fill(t, v.Field(i), 3)
		}
	}
	const w = 0x77
	key := keyOf(w, o, 1)
	in, got := reflect.ValueOf(o), reflect.ValueOf(key.opt)
	for i := 0; i < in.NumField(); i++ {
		f := in.Type().Field(i)
		switch {
		case f.Name == "Model":
			if key.opt.Model != o.Model {
				t.Error("Model: the key does not hold the caller's model")
			}
		case neutral[f.Name]:
			if !got.Field(i).IsZero() {
				t.Errorf("%s: listed result-neutral but not zeroed in the key", f.Name)
			}
		case f.Type.Kind() == reflect.Pointer:
			if !got.Field(i).IsNil() {
				t.Errorf("%s: pointer left in the key — compares by address", f.Name)
			}
		case !got.Field(i).Equal(in.Field(i)):
			t.Errorf("%s: the key holds %v, the options %v", f.Name, got.Field(i), in.Field(i))
		}
		if f.Type.Kind() != reflect.Pointer || f.Name == "Model" || neutral[f.Name] {
			continue
		}
		same, other := o, o
		fill(t, reflect.ValueOf(&same).Elem().Field(i), 3)
		fill(t, reflect.ValueOf(&other).Elem().Field(i), 4)
		if keyOf(w, same, 1) != key {
			t.Errorf("%s: an equal value behind another pointer changes the key", f.Name)
		}
		if keyOf(w, other, 1) == key {
			t.Errorf("%s: the pointee is not part of the key", f.Name)
		}
		reflect.ValueOf(&other).Elem().Field(i).SetZero()
		if keyOf(w, other, 1) == key {
			t.Errorf("%s: unset and set share a key", f.Name)
		}
	}
	other := o
	other.Model = &model.Model{}
	if keyOf(w, other, 1) == key {
		t.Error("Model: another model shares the key")
	}
	if keyOf(w+1, o, 1) == key || keyOf(w, o, 2) == key {
		t.Error("spec and run count must be part of the key")
	}
	// Defaults are resolved first: unset and the explicit default agree.
	explicit := sim.Options{Policy: "none", CPUTh: policy.DefaultCPUPolicyTh, UncTh: policy.DefaultUncPolicyTh}
	if keyOf(w, sim.Options{}, 1) != keyOf(w, explicit, 1) {
		t.Error("an explicit default and an unset option have different keys")
	}
}

// TestSweepsHandsEachTableItsRows pins the flattening: tables of
// different column sets and lengths resolved in one fan-out each get
// their own rows, in order, rendered with their own columns and cells —
// those that read the run itself, as Tables II and A5 do, included.
func TestSweepsHandsEachTableItsRows(t *testing.T) {
	c := NewQuick()
	me := sim.Options{Policy: "min_energy", Seed: 20}
	eu := sim.Options{Policy: "min_energy_eufs", Seed: 20}
	ss := []sweep{
		bars("bars", "configuration", []runCfg{
			{"a", workload.BTMZC, me}, {"b", workload.BTMZC, eu}, {"c", workload.DGEMM, me}}),
		bars("none", "workload", nil),
		ratios("ratios", "kernel", []runCfg{
			{"d", workload.DGEMM, eu}, {"e", workload.BTCUDA, eu}}),
		{"runs", []string{"workload", "time (s)", "policy"}, []runCfg{
			{"f", workload.DGEMM, sim.Baseline()}, {"g", workload.BTCUDA, me}},
			func(room []string, r runCfg, d Comparison) []string {
				return report.NewRow(room).Label(r.name).F(d.Run.TimeSec, 2).Label(d.Run.Policy).Cells()
			}},
	}
	tabs, err := c.sweeps(ss...)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(ss) {
		t.Fatalf("tables = %d, want %d", len(tabs), len(ss))
	}
	for i, s := range ss {
		tab := tabs[i]
		if tab.Title != s.title || !reflect.DeepEqual(tab.Columns, s.columns) {
			t.Errorf("table %d: title %q columns %v", i, tab.Title, tab.Columns)
		}
		if len(tab.Rows) != len(s.rows) {
			t.Fatalf("table %q: rows = %d, want %d", s.title, len(tab.Rows), len(s.rows))
		}
		for j, r := range s.rows {
			d, err := c.Compare(r.name, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.cells(nil, r, d); !reflect.DeepEqual(tab.Rows[j], want) {
				t.Errorf("table %q row %d = %v, want %v", s.title, j, tab.Rows[j], want)
			}
		}
	}
	if got, want := len(tabs[0].Columns), len(tabs[2].Columns)+1; got != want {
		t.Errorf("bar figure has %d columns, ratio table %d: column sets not distinct", got, want-1)
	}
	if runs := tabs[3].Rows; runs[0][2] != "none" || runs[1][2] != "min_energy" {
		t.Errorf("run-reading rows = %v, want each row's own run", runs)
	}
}

func TestSummaryBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full-application sweep in short mode")
	}
	c := NewQuick()
	tabs, err := c.Generate("summary")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	avgE := parsePct(t, tab.Rows[0][1])
	maxE := parsePct(t, tab.Rows[0][2])
	avgT := parsePct(t, tab.Rows[1][1])
	maxT := parsePct(t, tab.Rows[1][2])
	// Paper: avg energy ~8.75%, max 13.77%; avg penalty 2.91%, max 4.95%.
	if avgE < 4 || avgE > 13 {
		t.Errorf("avg energy saving = %.2f%%, want near the paper's ~9%%", avgE)
	}
	if maxE < 8 || maxE > 20 {
		t.Errorf("max energy saving = %.2f%%, want near the paper's ~14%%", maxE)
	}
	if avgT < 0 || avgT > 6 {
		t.Errorf("avg time penalty = %.2f%%, want near the paper's ~3%%", avgT)
	}
	if maxT > 9 {
		t.Errorf("max time penalty = %.2f%%, want bounded like the paper's ~5%%", maxT)
	}
}

// TestSummaryMaximumOfNegativeColumn: a column where every application
// loses reports its largest value as the maximum, not 0.
func TestSummaryMaximumOfNegativeColumn(t *testing.T) {
	tab, err := summaryTable([]sim.Delta{
		{EnergySavingPct: -3, TimePenaltyPct: -1},
		{EnergySavingPct: -1, TimePenaltyPct: -4},
		{EnergySavingPct: -2, TimePenaltyPct: -2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]float64{{-2, -1}, {-7.0 / 3, -1}} {
		avg, top := parsePct(t, tab.Rows[i][1]), parsePct(t, tab.Rows[i][2])
		if math.Abs(avg-want[0]) > 0.01 || top != want[1] {
			t.Errorf("%s: average %v, maximum %v; want %v, %v", tab.Rows[i][0], avg, top, want[0], want[1])
		}
	}
}

func TestTable7ScopeGap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-application sweep in short mode")
	}
	c := NewQuick()
	tabs, err := c.Generate("table7")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 applications", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		dc := parsePct(t, row[1])
		pck := parsePct(t, row[2])
		// The paper's point: PCK-relative savings always look larger
		// than DC-relative savings, and the gap is not constant.
		if pck <= dc {
			t.Errorf("%s: PCK saving %.2f%% not above DC %.2f%%", row[0], pck, dc)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in short mode")
	}
	c := NewQuick()
	tabs, err := c.Generate("ablations")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("ablation tables = %d, want 5 (A1-A5)", len(tabs))
	}
	// A2: without the AVX512 model, DGEMM saves less energy.
	a2 := tabs[1]
	with := parsePct(t, a2.Rows[0][3])
	without := parsePct(t, a2.Rows[1][3])
	if without > with+0.3 {
		t.Errorf("A2: default model saving %.2f%% above AVX512 model %.2f%%", without, with)
	}
}

func TestFig3ThresholdProgression(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("fig3")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want ME + three thresholds", len(tab.Rows))
	}
	// ME alone saves nothing on BQCD (CPU held at nominal by the 3%
	// threshold); savings grow monotonically with unc_policy_th.
	if me := parsePct(t, tab.Rows[0][3]); me > 1 {
		t.Errorf("ME energy saving = %v%%, want ~0", me)
	}
	prev := -1.0
	for _, row := range tab.Rows[1:] {
		s := parsePct(t, row[3])
		if s < prev-0.2 {
			t.Errorf("energy saving regressed at %s: %v after %v", row[0], s, prev)
		}
		prev = s
	}
	// Power must scale faster than time penalty (the paper's note).
	last := tab.Rows[len(tab.Rows)-1]
	if ps, tp := parsePct(t, last[2]), parsePct(t, last[1]); ps <= tp {
		t.Errorf("power saving %v%% not above time penalty %v%%", ps, tp)
	}
}

func TestFig5GuidedColumns(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("fig5")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 thresholds x 3 configs", len(tab.Rows))
	}
	// eUFS adds real savings over ME for GROMACS(I) at both thresholds.
	for _, idx := range [][2]int{{0, 2}, {3, 5}} {
		me := parsePct(t, tab.Rows[idx[0]][3])
		eu := parsePct(t, tab.Rows[idx[1]][3])
		if eu < me+2 {
			t.Errorf("rows %v: eUFS %v%% not clearly above ME %v%%", idx, eu, me)
		}
	}
}

func TestFig6EUFSBeatsME(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("fig6")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	me := parsePct(t, tab.Rows[0][3])
	eu := parsePct(t, tab.Rows[1][3])
	// Paper: ~14% for ME+eU on GROMACS(II), ME near zero.
	if eu < 8 || me > 2 {
		t.Errorf("GROMACS(II): ME %v%%, ME+eU %v%%, want ~0 and ~13", me, eu)
	}
}

func TestFig8ThresholdTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("large-application sweep in short mode")
	}
	c := NewQuick()
	tabs, err := c.Generate("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d (DUMSES, AFiD)", len(tabs))
	}
	for _, tab := range tabs {
		// cpu_th 5% saves at least as much energy as 3%, at higher
		// penalty — the user-facing trade-off of the figure.
		e3 := parsePct(t, tab.Rows[1][3]) // ME+eU at 3%
		e5 := parsePct(t, tab.Rows[3][3]) // ME+eU at 5%
		t3 := parsePct(t, tab.Rows[1][1])
		t5 := parsePct(t, tab.Rows[3][1])
		if e5 < e3-0.3 {
			t.Errorf("%s: 5%% saving %v below 3%% saving %v", tab.Title, e5, e3)
		}
		if t5 < t3-0.3 {
			t.Errorf("%s: 5%% penalty %v below 3%% penalty %v", tab.Title, t5, t3)
		}
	}
}

func TestBaselinesStory(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("baselines")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// On HPCG the feedback controller (uncore only) leaves the DVFS
	// saving on the table.
	var hpcgEU, hpcgDUF float64
	for _, row := range tab.Rows {
		switch row[0] {
		case workload.HPCG + " / ME+eU":
			hpcgEU = parsePct(t, row[3])
		case workload.HPCG + " / duf":
			hpcgDUF = parsePct(t, row[3])
		}
	}
	if hpcgEU < hpcgDUF+5 {
		t.Errorf("HPCG: ME+eU %v%% not clearly above duf %v%%", hpcgEU, hpcgDUF)
	}
}

func TestFutureWorkStory(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("future_work")
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	// min_time on the CPU-bound kernel climbs to nominal and saves
	// ~nothing; the eUFS stage adds the uncore saving.
	mt := parsePct(t, tab.Rows[0][3])
	mteu := parsePct(t, tab.Rows[1][3])
	if mt > 1 {
		t.Errorf("min_time on BT-MZ saves %v%%, want ~0", mt)
	}
	if mteu < 3 {
		t.Errorf("min_time+eU on BT-MZ saves %v%%, want the uncore saving", mteu)
	}
}

func TestA1SettleTimeShowsGuidedAdvantage(t *testing.T) {
	c := NewQuick()
	tabs, err := c.sweeps(a1())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	guided := parseF(t, tab.Rows[0][4])
	fromMax := parseF(t, tab.Rows[1][4])
	if guided >= fromMax {
		t.Errorf("guided settle %vs not below from-max %vs", guided, fromMax)
	}
}

func TestModelAccuracyExperiment(t *testing.T) {
	c := NewQuick()
	tabs, err := c.Generate("model_accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d (SD530, CascadeLake)", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) < 5 {
			t.Fatalf("%s: rows = %d", tab.Title, len(tab.Rows))
		}
		// Near projections must be accurate (< 5% mean CPI error at the
		// first sampled pstate).
		if e := parsePct(t, tab.Rows[0][2]); e > 5 {
			t.Errorf("%s: near-projection error %v%%", tab.Title, e)
		}
		// Error generally grows with distance but stays bounded.
		last := tab.Rows[len(tab.Rows)-1]
		if e := parsePct(t, last[3]); e > 40 {
			t.Errorf("%s: far-projection max error %v%%", tab.Title, e)
		}
	}
}
