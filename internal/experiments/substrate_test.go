package experiments

import (
	"reflect"
	"testing"

	"goear/internal/sim"
	"goear/internal/uncore"
	"goear/internal/workload"
)

// lookup returns a fresh copy of a catalogue spec.
func lookup(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// delta is what a call added to a context's cache counters.
func delta(before, after CacheStats) CacheStats {
	return CacheStats{
		Models:          after.Models - before.Models,
		Calibrations:    after.Calibrations - before.Calibrations,
		Runs:            after.Runs - before.Runs,
		ModelsTrained:   after.ModelsTrained - before.ModelsTrained,
		CalibrationsRun: after.CalibrationsRun - before.CalibrationsRun,
		RunsExecuted:    after.RunsExecuted - before.RunsExecuted,
		ModelHits:       after.ModelHits - before.ModelHits,
		CalibrationHits: after.CalibrationHits - before.CalibrationHits,
		RunHits:         after.RunHits - before.RunHits,
	}
}

// runSpec runs spec on c and returns the result with what the run added
// to c's cache counters.
func runSpec(t *testing.T, c *Context, spec workload.Spec, opt sim.Options) (sim.Result, CacheStats) {
	t.Helper()
	before := c.Stats()
	r, err := c.RunSpec(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r, delta(before, c.Stats())
}

// TestPerturbedMachineGetsItsOwnEntries is the substrate-as-value
// contract: a catalogue spec whose memory model is perturbed under the
// same platform and workload names trains a model of its own, calibrates
// again and runs again, and the result moves.
func TestPerturbedMachineGetsItsOwnEntries(t *testing.T) {
	c := NewQuick()
	opt := sim.Options{Policy: "min_energy_eufs", Seed: 3}
	base, err := c.Run(workload.BTMZC, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := lookup(t, workload.BTMZC)
	spec.Platform.Machine.Mem.UncoreLatencyNsGHz *= 1.5
	r, d := runSpec(t, c, spec, opt)
	if d.ModelsTrained != 1 || d.CalibrationsRun != 1 || d.RunsExecuted != 1 {
		t.Errorf("perturbed machine: %+v, want one training, one calibration and one run", d)
	}
	if reflect.DeepEqual(r, base) {
		t.Error("perturbed machine returned the catalogue entry's result")
	}
}

// TestEqualSpecSharesCatalogueEntries: a spec value equal to a catalogue
// entry — here with its platform and curve rebuilt from their
// constructors — is that entry, whichever entry point asks.
func TestEqualSpecSharesCatalogueEntries(t *testing.T) {
	c := NewQuick()
	opt := sim.Options{Policy: "min_energy", Seed: 5}
	want, err := c.Run(workload.BTMZC, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := lookup(t, workload.BTMZC)
	spec.Platform = workload.SD530()
	spec.HWUncore = uncore.AlwaysMax(24)
	r, d := runSpec(t, c, spec, opt)
	if d != (CacheStats{ModelHits: 1, CalibrationHits: 1, RunHits: 1}) {
		t.Errorf("equal spec: %+v, want one hit per cache and nothing computed", d)
	}
	if !reflect.DeepEqual(r, want) {
		t.Error("equal spec: result differs from the catalogue entry's")
	}
}

// TestNamesDoNotKeySpecs: a definition named like a catalogue entry but
// with other targets, and a resized catalogue entry, each calibrate and
// run apart from the entry.
func TestNamesDoNotKeySpecs(t *testing.T) {
	c := NewQuick()
	opt := sim.Baseline()
	opt.Seed = 7
	base, err := c.Run(workload.BTMZC, opt)
	if err != nil {
		t.Fatal(err)
	}
	retargeted := lookup(t, workload.BTMZC)
	retargeted.DefaultSegment.TargetCPI = 0.45
	resized := lookup(t, workload.BTMZC)
	resized.Nodes = 2
	for _, tc := range []struct {
		what string
		spec workload.Spec
	}{{"retargeted", retargeted}, {"resized", resized}} {
		r, d := runSpec(t, c, tc.spec, opt)
		if d.CalibrationsRun != 1 || d.RunsExecuted != 1 {
			t.Errorf("%s: %+v, want a calibration and a run of its own", tc.what, d)
		}
		if r.Workload != workload.BTMZC || reflect.DeepEqual(r, base) {
			t.Errorf("%s: %s result equal to the catalogue entry's", tc.what, r.Workload)
		}
	}
	if r, err := c.RunSpec(resized, opt); err != nil || len(r.Nodes) != 2 {
		t.Errorf("resized: %d nodes, err %v; want 2", len(r.Nodes), err)
	}
}

func TestRunSpecRejectsInvalidSpec(t *testing.T) {
	bad := lookup(t, workload.BTMZC)
	bad.Nodes = 0
	if _, err := NewQuick().RunSpec(bad, sim.Options{}); err == nil {
		t.Error("expected calibration error")
	}
}

// TestSpecIDCoversEveryField walks workload.Spec by reflection: every
// leaf field — the platform's machine and power coefficients, a
// segment's targets and the uncore curve included — changes specID, and
// no field is a func, pointer, map, chan or interface, which %#v would
// render as an address or a dynamic type instead of a value.
func TestSpecIDCoversEveryField(t *testing.T) {
	const name = workload.PhaseChange // has Segments
	id := specID(lookup(t, name))
	leaves := 0
	var walk func(path string, at func(reflect.Value) reflect.Value, typ reflect.Type)
	walk = func(path string, at func(reflect.Value) reflect.Value, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, func(v reflect.Value) reflect.Value { return at(v).Field(i) }, typ.Field(i).Type)
			}
			return
		case reflect.Slice:
			walk(path+"[0]", func(v reflect.Value) reflect.Value { return at(v).Index(0) }, typ.Elem())
			return
		case reflect.Func, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s: a %s field has no value to digest", path, typ.Kind())
			return
		}
		leaves++
		s := lookup(t, name) // Segments of its own: the bump cannot reach the table
		v := at(reflect.ValueOf(&s).Elem())
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*1.5 + 1)
		default:
			t.Fatalf("%s: no rule for %s — teach the test this kind", path, v.Type())
		}
		if specID(s) == id {
			t.Errorf("%s: changing it leaves the spec ID alone", path)
		}
	}
	walk("Spec", func(v reflect.Value) reflect.Value { return v }, reflect.TypeOf(workload.Spec{}))
	if leaves < 40 {
		t.Errorf("walked %d leaves; the walk stopped short", leaves)
	}
	longer := lookup(t, name)
	longer.Segments = append(longer.Segments, longer.Segments[0])
	if specID(longer) == id {
		t.Error("another segment leaves the spec ID alone")
	}
}
