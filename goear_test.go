package goear

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"goear/internal/experiments"
	"goear/internal/policy"
	"goear/internal/sim"
	"goear/internal/workload"
)

// shared session: model training is the expensive part; the facade's
// caching makes the rest cheap.
var (
	sessOnce sync.Once
	sess     *Session
)

func session() *Session {
	sessOnce.Do(func() { sess = NewQuickSession() })
	return sess
}

func TestWorkloadsAndPolicies(t *testing.T) {
	ws := Workloads()
	if len(ws) < 14 {
		t.Fatalf("workloads = %d, want >= 14", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.Nodes < 1 {
			t.Errorf("bad workload info %+v", w)
		}
		seen[w.Name] = true
	}
	for _, n := range []string{"BT-MZ.C", "HPCG", "DGEMM", "POP"} {
		if !seen[n] {
			t.Errorf("catalogue missing %s", n)
		}
	}
	ps := Policies()
	if ps[0] != PolicyNone {
		t.Errorf("first policy = %q, want none", ps[0])
	}
	found := 0
	for _, p := range ps {
		switch p {
		case PolicyMinEnergy, PolicyMinEnergyEUFS, PolicyMinTime, PolicyMinTimeEUFS, PolicyMonitoring:
			found++
		}
	}
	if found != 5 {
		t.Errorf("registered policies = %v", ps)
	}
}

func TestRunBaseline(t *testing.T) {
	r, err := session().Run("BT-MZ.C", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeSec < 140 || r.TimeSec > 150 {
		t.Errorf("time = %v, want ~145 (Table II)", r.TimeSec)
	}
	if r.AvgPowerW < 320 || r.AvgPowerW > 345 {
		t.Errorf("power = %v, want ~332", r.AvgPowerW)
	}
	if r.Nodes != 1 || r.Policy != "none" {
		t.Errorf("run meta = %+v", r)
	}
}

func TestCompareEUFS(t *testing.T) {
	c, err := session().Compare("BT-MZ.C", Config{Policy: PolicyMinEnergyEUFS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.EnergySavingPct < 3 || c.EnergySavingPct > 12 {
		t.Errorf("energy saving = %v%%, want the paper's band", c.EnergySavingPct)
	}
	if c.TimePenaltyPct < 0 || c.TimePenaltyPct > 3 {
		t.Errorf("time penalty = %v%%", c.TimePenaltyPct)
	}
	if c.Run.AvgIMCGHz >= c.Baseline.AvgIMCGHz {
		t.Error("eUFS did not lower the uncore")
	}
}

// TestCompareIsTheCampaigns: the facade's comparison is the engine's —
// Table III's ME+eU cell for DGEMM (min_energy_eufs at seed 20, against
// the nominal baseline) read through a fresh campaign context gives the
// same runs and the same deltas, bit for bit.
func TestCompareIsTheCampaigns(t *testing.T) {
	got, err := session().Compare("DGEMM", Config{Policy: PolicyMinEnergyEUFS, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	c, err := experiments.NewQuick().Compare("DGEMM", sim.Options{Policy: policy.MinEnergyEUFS, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := Comparison{
		Run: fromSim(c.Run), Baseline: fromSim(c.Baseline),
		TimePenaltyPct: c.TimePenaltyPct, PowerSavingPct: c.PowerSavingPct, EnergySavingPct: c.EnergySavingPct,
	}
	if got != want {
		t.Errorf("the facade compares\n%+v\nthe campaign\n%+v", got, want)
	}
	if c.Run.AvgIMCGHz >= c.Baseline.AvgIMCGHz {
		t.Error("the campaign's eUFS run did not lower the uncore")
	}
}

func TestCompareNeedsPolicy(t *testing.T) {
	if _, err := session().Compare("BT-MZ.C", Config{}); err == nil {
		t.Error("expected error for comparison without policy")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := session().Run("nope", Config{}); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := session().Run("BT-MZ.C", Config{Policy: "bogus"}); err == nil {
		t.Error("expected error for unknown policy")
	}
	var nilSess *Session
	if _, err := nilSess.Run("BT-MZ.C", Config{}); err == nil {
		t.Error("expected error for nil session")
	}
	if _, err := (&Session{}).Experiment("table2"); err == nil {
		t.Error("expected error for zero-value session")
	}
}

func TestFixedOperatingPoint(t *testing.T) {
	r, err := session().Run("BT-MZ.C", Config{
		Seed: 1, FixedCPUPstate: 1, FixedUncoreGHz: 1.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgIMCGHz > 1.85 || r.AvgIMCGHz < 1.7 {
		t.Errorf("pinned IMC = %v, want ~1.79", r.AvgIMCGHz)
	}
	if _, err := session().Run("BT-MZ.C", Config{Seed: 1, FixedUncoreGHz: 5}); err == nil {
		t.Error("FixedUncoreGHz 5 is above the uncore range; expected an error")
	}
}

// TestToOptionsPins holds the facade's pinning rule: a positive
// FixedCPUPstate pins that pstate, zero pins pstate 1 only beside a
// pinned uncore, and a negative value pins nothing.
func TestToOptionsPins(t *testing.T) {
	for _, c := range []struct {
		pstate int
		ghz    float64
		wantP  int // -1: not pinned
		wantR  uint64
	}{
		{0, 0, -1, 0},
		{3, 0, 3, 0},
		{0, 1.8, 1, 18},
		{-1, 1.8, -1, 18},
		{0, 0.01, 1, 1}, // a pin, refused by the run as out of range
	} {
		o := Config{FixedCPUPstate: c.pstate, FixedUncoreGHz: c.ghz}.toOptions()
		gotP := -1
		if o.FixedCPUPstate != nil {
			gotP = *o.FixedCPUPstate
		}
		if gotP != c.wantP || o.FixedUncoreRatio != c.wantR {
			t.Errorf("{%d, %g}: pstate %d ratio %d, want %d and %d", c.pstate, c.ghz, gotP, o.FixedUncoreRatio, c.wantP, c.wantR)
		}
	}
}

func TestExperimentRendering(t *testing.T) {
	out, err := session().Experiment("table2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "BT-MZ.C") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
	if _, err := session().Experiment("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
	tabs, err := session().ExperimentTables("table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 5 {
		t.Errorf("table2 structure: %d tables", len(tabs))
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"summary", "ablations"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q missing from IDs", w)
		}
	}
}

func TestRunPowercapped(t *testing.T) {
	free, err := session().Run("BT-MZ.C", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A budget 10% under the free draw must engage and land under it.
	budget := free.AvgPowerW * 0.9
	r, err := session().RunPowercapped("BT-MZ.C", Config{Seed: 1}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalCap == 0 {
		t.Error("tight budget never engaged the cap")
	}
	if r.Run.AvgPowerW >= free.AvgPowerW {
		t.Errorf("capped power %.1fW not below free %.1fW", r.Run.AvgPowerW, free.AvgPowerW)
	}
	if r.Run.TimeSec < free.TimeSec {
		t.Error("capped run cannot be faster than free run")
	}
	// A huge budget is a no-op.
	loose, err := session().RunPowercapped("BT-MZ.C", Config{Seed: 1}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if loose.FinalCap != 0 || loose.OverBudgetPct != 0 {
		t.Errorf("loose budget engaged: %+v", loose)
	}
	var nilSess *Session
	if _, err := nilSess.RunPowercapped("BT-MZ.C", Config{}, 100); err == nil {
		t.Error("expected error for nil session")
	}
}

func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	data, err := json.Marshal(workload.Template())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := session().RunSpecFile(path, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "my-app" || r.Nodes != 2 {
		t.Errorf("result = %+v", r)
	}
	if r.TimeSec < 290 || r.TimeSec > 310 {
		t.Errorf("time = %v, want ~300", r.TimeSec)
	}
	// With a policy the model trains on demand.
	r2, err := session().RunSpecFile(path, Config{Policy: PolicyMinEnergyEUFS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgIMCGHz >= r.AvgIMCGHz {
		t.Errorf("eUFS did not lower the uncore on the custom spec: %v vs %v", r2.AvgIMCGHz, r.AvgIMCGHz)
	}
	if _, err := session().RunSpecFile(filepath.Join(dir, "missing.json"), Config{}); err == nil {
		t.Error("expected error for missing file")
	}
	var nilSess *Session
	if _, err := nilSess.RunSpecFile(path, Config{}); err == nil {
		t.Error("expected error for nil session")
	}
}
