package sim

import (
	"strings"
	"sync"
	"testing"

	"goear/internal/policy"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// tally is what a set holds of the runs counted into it: node runs,
// steps and the decisions of one policy.
type tally struct{ runs, steps, decisions uint64 }

func tallyOf(set *telemetry.Set, pol string) tally {
	tl := newSimTel(set) // fetches the families the runs registered
	return tally{
		runs:      tl.runs.Value(),
		steps:     tl.steps.Value(),
		decisions: tl.decisions.With(pol, "ready").Value() + tl.decisions.With(pol, "continue").Value(),
	}
}

// TestRunsCountIntoTheirOwnSet: two runs in flight at once, each with
// its own set, count into their own set exactly what the same run counts
// alone, although they share the node pool; a later run without a set,
// recycling those nodes, counts into neither.
func TestRunsCountIntoTheirOwnSet(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	mdl := platformModel(t, cal.Platform)
	runs := []Options{
		{Policy: policy.MinEnergyEUFS, Model: mdl, Seed: 1, Workers: 2},
		{Policy: policy.MinEnergyEUFS, Model: mdl, Seed: 2, Workers: 2},
	}
	two := cal
	two.Nodes = 2
	cals := []workload.Calibrated{cal, two}

	run := func(i int, set *telemetry.Set) error {
		opt := runs[i]
		opt.Telemetry = set
		_, err := Run(cals[i], opt)
		return err
	}
	var alone [2]tally
	for i := range runs {
		set := telemetry.NewSet()
		if err := run(i, set); err != nil {
			t.Fatal(err)
		}
		alone[i] = tallyOf(set, policy.MinEnergyEUFS)
		if alone[i].runs != uint64(cals[i].Nodes) || alone[i].decisions == 0 {
			t.Fatalf("run %d alone: %+v for %d nodes", i, alone[i], cals[i].Nodes)
		}
	}
	if alone[0] == alone[1] {
		t.Fatalf("both runs count %+v: a leak between them would not show", alone[0])
	}

	sets := []*telemetry.Set{telemetry.NewSet(), telemetry.NewSet()}
	var wg sync.WaitGroup
	errs := make([]error, len(runs))
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(i, sets[i])
		}()
	}
	wg.Wait()
	for i, set := range sets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := tallyOf(set, policy.MinEnergyEUFS); got != alone[i] {
			t.Errorf("run %d beside the other counts %+v, alone %+v", i, got, alone[i])
		}
	}

	if err := run(0, nil); err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		if got := tallyOf(set, policy.MinEnergyEUFS); got != alone[i] {
			t.Errorf("a run without a set changed set %d: %+v, was %+v", i, got, alone[i])
		}
	}
}

// TestRecycledNodeFollowsTelemetry walks one kept node through runs
// with no set, set A, A again, set B and no set. Each run counts its
// node run and policy decisions into the set it carries and nowhere
// else; a second run into A keeps the node's counted policy and costs
// what a recycled run without a set costs, none at all.
func TestRecycledNodeFollowsTelemetry(t *testing.T) {
	cal := calibrated(t, workload.BTMZD)
	opt := Options{Policy: policy.MinEnergyEUFS, Model: platformModel(t, cal.Platform), Seed: 1}.WithDefaults()
	a, b := telemetry.NewSet(), telemetry.NewSet()
	n := new(node)
	run := func(set *telemetry.Set) {
		o := opt
		o.Telemetry = set
		runOn(t, n, cal, 0, o)
		n.flushTel()
	}
	read := func() [2]tally { return [2]tally{tallyOf(a, opt.Policy), tallyOf(b, opt.Policy)} }

	run(nil)
	if got := read(); got != [2]tally{} {
		t.Fatalf("a run without a set counted %+v", got)
	}
	run(a)
	one := read()[0]
	if one.runs != 1 || one.decisions == 0 {
		t.Fatalf("a run into A counted %+v", one)
	}
	kept := n.counted
	run(a)
	if got := read(); got != [2]tally{{2, 2 * one.steps, 2 * one.decisions}, {}} {
		t.Errorf("A again: counts %+v, want A doubled and B empty", got)
	}
	if n.counted != kept {
		t.Error("A again: the counted policy was built anew")
	}
	run(b)
	if got := read(); got != [2]tally{{2, 2 * one.steps, 2 * one.decisions}, one} {
		t.Errorf("B: counts %+v, want A unchanged and B one run", got)
	}
	if n.counted == kept {
		t.Error("B: the policy counting into A was kept")
	}
	before := read()
	run(nil)
	if got := read(); got != before {
		t.Errorf("no set: counts went from %+v to %+v", before, got)
	}

	plain := testing.AllocsPerRun(5, func() { run(nil) })
	counted := testing.AllocsPerRun(5, func() { run(a) })
	if counted != plain {
		t.Errorf("a recycled run into A allocates %v times, one without a set %v", counted, plain)
	}
}

// TestTelemetryListsEveryPolicy: a scrape of a set before any decision
// already lists every policy's decision counters at zero.
func TestTelemetryListsEveryPolicy(t *testing.T) {
	set := telemetry.NewSet()
	cal := calibrated(t, workload.BTMZC)
	if _, err := NewStepper(cal, 0, Options{Policy: "none", Seed: 1, Telemetry: set}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := set.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		want := `goear_policy_decisions_total{policy="` + name + `",state="ready"} 0`
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape is missing %s", want)
		}
	}
}
