package perf_test

import (
	"testing"

	"goear/internal/model"
	"goear/internal/perf"
	"goear/internal/workload"
)

// trainingGrid returns the learning phase's evaluations on SD530: the
// probe phases at every pstate, uncore at its maximum.
func trainingGrid(tb testing.TB) (perf.Machine, []perf.Operating, []perf.Phase) {
	tb.Helper()
	m := workload.SD530().Machine
	phases := probePhases(m.CPU.TotalCores())
	ops := make([]perf.Operating, m.CPU.PstateCount())
	for p := range ops {
		r, err := m.CPU.PstateRatio(p)
		if err != nil {
			tb.Fatal(err)
		}
		ops[p] = perf.Operating{CoreRatio: r, UncoreRatio: m.CPU.UncoreMaxRatio}
	}
	return m, ops, phases
}

// probePhases returns the distinct phases of model.DefaultProbes, which
// lists each once per activity, side by side.
func probePhases(activeCores int) []perf.Phase {
	var phases []perf.Phase
	for i, pr := range model.DefaultProbes(activeCores) {
		if i == 0 || pr.Phase != phases[len(phases)-1] {
			phases = append(phases, pr.Phase)
		}
	}
	return phases
}

// TestTrainingWorkCounts pins the learning phase's evaluation work on
// SD530: 3,200 evaluations, every one solved by search, whose fixed
// points the exact search finds in 7,727 evaluations of rises.
func TestTrainingWorkCounts(t *testing.T) {
	m, ops, phases := trainingGrid(t)
	out := make([]perf.Result, len(phases))
	var evals, rises int
	for _, op := range ops {
		n, r, err := perf.EvaluateAllWork(m, op, phases, out)
		if err != nil {
			t.Fatal(err)
		}
		evals += n
		rises += r
	}
	if evals != 3200 || rises != 7727 {
		t.Errorf("%d evaluations, %d rises evaluations; want 3200, 7727", evals, rises)
	}
}

// BenchmarkEvaluateAll is the learning phase's evaluation stage on one
// core: every pstate row of the SD530 grid.
func BenchmarkEvaluateAll(b *testing.B) {
	m, ops, phases := trainingGrid(b)
	out := make([]perf.Result, len(phases))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			if _, err := perf.EvaluateAll(m, op, phases, out); err != nil {
				b.Fatal(err)
			}
		}
	}
}
