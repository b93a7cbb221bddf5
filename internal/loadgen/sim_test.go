package loadgen

import (
	"reflect"
	"testing"

	"goear/internal/workload"
)

// TestRunSimShardInvariance pins the campaign's determinism contract:
// scaling the node count and varying the worker count — one batch
// kernel each — never changes the result bytes.
func TestRunSimShardInvariance(t *testing.T) {
	base := SimConfig{Workload: workload.BTMZC, Nodes: 6, Seed: 3}
	ref, err := RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Nodes) != 6 {
		t.Fatalf("got %d node results, want 6", len(ref.Nodes))
	}
	for _, workers := range []int{1, 2, 4} {
		v := base
		v.Workers = workers
		got, err := RunSim(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("config %+v: result differs from reference", v)
		}
	}
}

// TestRunSimExactTracksMacro checks the -exact opt-out stays within the
// macro-step tolerance and that a policy campaign trains its model.
func TestRunSimExactTracksMacro(t *testing.T) {
	cfg := SimConfig{Workload: workload.BTMZC, Nodes: 2, Seed: 5, Policy: "min_energy_eufs"}
	fast, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exact = true
	exact, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := (fast.EnergyJ - exact.EnergyJ) / exact.EnergyJ; d > 1e-3 || d < -1e-3 {
		t.Errorf("macro energy %g vs exact %g (rel %g)", fast.EnergyJ, exact.EnergyJ, d)
	}
	if d := (fast.TimeSec - exact.TimeSec) / exact.TimeSec; d > 1e-3 || d < -1e-3 {
		t.Errorf("macro time %g vs exact %g (rel %g)", fast.TimeSec, exact.TimeSec, d)
	}
}

func TestRunSimUnknownWorkload(t *testing.T) {
	if _, err := RunSim(SimConfig{Workload: "no-such-kernel"}); err == nil {
		t.Error("expected error for unknown workload")
	}
}
