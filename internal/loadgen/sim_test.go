package loadgen

import (
	"reflect"
	"testing"

	"goear/internal/workload"
)

// TestRunSimShardInvariance pins the campaign's determinism contract:
// scaling the node count and varying the worker count — one batch
// each — never changes the result bytes, with and without a policy
// (which makes the campaign train its model).
func TestRunSimShardInvariance(t *testing.T) {
	for _, base := range []SimConfig{
		{Workload: workload.BTMZC, Nodes: 6, Seed: 3},
		{Workload: workload.BTMZC, Nodes: 2, Seed: 5, Policy: "min_energy_eufs"},
	} {
		ref, err := RunSim(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Nodes) != base.Nodes {
			t.Fatalf("got %d node results, want %d", len(ref.Nodes), base.Nodes)
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
}

func TestRunSimUnknownWorkload(t *testing.T) {
	if _, err := RunSim(SimConfig{Workload: "no-such-kernel"}); err == nil {
		t.Error("expected error for unknown workload")
	}
}
