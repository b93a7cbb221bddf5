package sim

import (
	"fmt"
	"math"
	"testing"

	"goear/internal/eargm"
	"goear/internal/workload"
)

func TestCoordinatedRunEnforcesBudget(t *testing.T) {
	// Four BQCD nodes draw ~1200W uncapped. A 1150W budget forces the
	// global manager to cap pstates until the cluster fits.
	cal := calibrated(t, workload.BQCD)
	m := platformModel(t, cal.Platform)

	free, err := Run(cal, Options{Policy: "min_energy", Model: m, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	freeTotal := free.AvgPowerW * float64(len(free.Nodes))

	budget := freeTotal * 0.95
	gm, err := eargm.New(eargm.Config{BudgetW: budget, MaxCapPstate: 10, IntervalSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RunCoordinated(cal, Options{Policy: "min_energy", Model: m, Seed: 5}, gm)
	if err != nil {
		t.Fatal(err)
	}
	cappedTotal := capped.AvgPowerW * float64(len(capped.Nodes))
	if cappedTotal >= freeTotal {
		t.Errorf("capped cluster power %.1fW not below free %.1fW", cappedTotal, freeTotal)
	}
	// The ratchet must actually have engaged, and the cluster must be
	// under budget for the bulk of the run.
	st := gm.Stats()
	if st.FinalCap == 0 && st.OverBudget == 0 {
		t.Error("manager never engaged")
	}
	if st.OverBudgetPct > 30 {
		t.Errorf("over budget %.1f%% of intervals, want mostly capped", st.OverBudgetPct)
	}
	// Capping costs time: the capped run cannot be faster.
	if capped.TimeSec < free.TimeSec {
		t.Errorf("capped run faster (%.1fs) than free (%.1fs)", capped.TimeSec, free.TimeSec)
	}
}

func TestCoordinatedRunWithLooseBudgetMatchesFreeRun(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	gm, err := eargm.New(eargm.Config{BudgetW: 10000, MaxCapPstate: 8})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := RunCoordinated(cal, Options{Policy: "none", Seed: 3}, gm)
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(cal, Options{Policy: "none", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := coord.TimeSec - free.TimeSec; d > 0.5 || d < -0.5 {
		t.Errorf("loose-budget coordinated time %.2fs differs from free %.2fs", coord.TimeSec, free.TimeSec)
	}
	if c := gm.Stats().FinalCap; c != 0 {
		t.Errorf("cap = %d under a loose budget", c)
	}
}

func TestCoordinatedRunErrors(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	if _, err := RunCoordinated(cal, Options{}, nil); err == nil {
		t.Error("expected error for nil manager")
	}
	gm, err := eargm.New(eargm.Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCoordinated(cal, Options{Policy: "min_energy"}, gm); err == nil {
		t.Error("expected error for missing model")
	}
}

// badManager reports a fixed interval and never caps.
type badManager float64

func (m badManager) Interval() float64                    { return float64(m) }
func (badManager) Update(float64, []float64) (int, error) { return 0, nil }

// TestCoordinatedRunRejectsBadInterval: an interval that is not
// positive and finite is refused. NaN passes a plain "<= 0" test and
// then never lets a node advance, so the run would not return; +Inf
// runs every node to the end in one interval and hands the manager 0 W.
func TestCoordinatedRunRejectsBadInterval(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(iv), func(t *testing.T) {
			if _, err := RunCoordinated(cal, Options{}, badManager(iv)); err == nil {
				t.Errorf("interval %v accepted", iv)
			}
		})
	}
}
