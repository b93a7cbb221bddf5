package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"goear/internal/eargm"
	"goear/internal/msr"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// stepToEnd drives a fresh node through stepOnce alone — the oracle.
func stepToEnd(t *testing.T, cal workload.Calibrated, id int, opt Options) *node {
	t.Helper()
	s, err := NewStepper(cal, id, opt)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return s.n
}

// runToEnd drives a fresh node through the engine, as runNode does.
func runToEnd(t *testing.T, cal workload.Calibrated, id int, opt Options) *node {
	t.Helper()
	n, err := newNode(&cal, id, opt.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.runUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return n
}

// instruments reads what software on the node could observe, and what
// the next tick starts from: the Node Manager, the RAPL meter and each
// uncore controller whole (carries, clocks, accumulators and the MSR
// files they write), the RAPL and uncore registers read through the
// node's files, and the tick count. It is a deep copy, so a snapshot
// taken mid-run compares with reflect.DeepEqual once the node has moved
// on.
func instruments(t *testing.T, n *node) []any {
	t.Helper()
	out := flatten(nil, reflect.ValueOf(&n.inm))
	out = flatten(out, reflect.ValueOf(&n.rapl))
	for s, f := range n.files {
		out = flatten(out, reflect.ValueOf(&n.slots[s].ctl))
		for _, reg := range []uint32{msr.MSRPkgEnergyStatus, msr.MSRDramEnergyStatus, msr.MSRUncorePerfStatus} {
			v, err := f.Read(reg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return append(out, n.stepCount)
}

// flatten appends every scalar reachable from v — pointers followed,
// unexported fields read, floats as their bits.
func flatten(out []any, v reflect.Value) []any {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, nil)
		}
		return flatten(out, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			out = flatten(out, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		out = append(out, v.Len())
		for i := range v.Len() {
			out = flatten(out, v.Index(i))
		}
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int32, reflect.Int64:
		out = append(out, v.Int())
	case reflect.Uint32, reflect.Uint64:
		out = append(out, v.Uint())
	case reflect.String:
		out = append(out, v.String())
	default:
		panic("flatten: unhandled kind " + v.Kind().String())
	}
	return out
}

// TestRunMatchesStepperExactly is the identity that replaced the
// macro-step tolerance: sim.Run (armed replay) must equal a
// stepOnce-only run of the same node field for field — the NodeResult,
// and every instrument read through the node afterwards.
//
// Each workload and policy runs four ways. phases=true drops EARL's
// phase-change threshold (SigChangeTh) from 15 % to 0.2 %, below the
// measurement noise, so signature moves the default ignores count as
// phase changes; every policy run's result changes. limits=true starts
// the node from a pinned operating point — CPU pstate 4 and the MSR
// 0x620 uncore limits at min=max=18 — which under "none" holds for the
// whole run and under a policy holds until its first decision.
func TestRunMatchesStepperExactly(t *testing.T) {
	pstate, ratio := 4, uint64(18)
	for _, wl := range []string{workload.BTMZC, workload.HPCG, workload.BTCUDA} {
		cal := calibrated(t, wl)
		if cal.Nodes > 2 {
			cal.Nodes = 2
		}
		m := platformModel(t, cal.Platform)
		for _, pol := range []string{"none", "min_energy", "min_energy_eufs"} {
			for _, phases := range []bool{false, true} {
				for _, limits := range []bool{false, true} {
					opt := Options{Policy: pol, Model: m, Seed: 11}
					if phases {
						opt.SigChangeTh = 0.002
					}
					if limits {
						opt.FixedCPUPstate, opt.FixedUncoreRatio = &pstate, ratio
					}
					t.Run(fmt.Sprintf("%s/%s/phases=%v/limits=%v", wl, pol, phases, limits), func(t *testing.T) {
						t.Parallel()
						got, err := Run(cal, opt)
						if err != nil {
							t.Fatal(err)
						}
						for id := 0; id < cal.Nodes; id++ {
							oracle := stepToEnd(t, cal, id, opt)
							want, err := oracle.result()
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Nodes[id], want) {
								t.Errorf("node %d: Run differs from Stepper\n got: %+v\nwant: %+v", id, got.Nodes[id], want)
							}
							n := runToEnd(t, cal, id, opt)
							if n.replayed == 0 || n.replayed >= n.stepCount {
								t.Errorf("node %d: %d of %d ticks replayed; the fast path is not engaging", id, n.replayed, n.stepCount)
							}
							if g, w := instruments(t, n), instruments(t, oracle); !reflect.DeepEqual(g, w) {
								t.Errorf("node %d: instruments differ\n got: %v\nwant: %v", id, g, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestNeverArms covers the node the fast path must refuse, one being
// traced (trace points need per-step sampling): it must run, match the
// oracle and replay nothing. Beside it, a four-socket node, wider than
// every catalogue platform, arms like any other: it must replay and
// match the oracle.
func TestNeverArms(t *testing.T) {
	wide := calibrated(t, workload.BTMZC)
	wide.Platform.Machine.CPU.Sockets = 4
	traced := calibrated(t, workload.BTMZC)
	for _, c := range []struct {
		name string
		cal  workload.Calibrated
		opt  Options
		arms bool
	}{
		{"four_sockets", wide, Options{Policy: "none", Seed: 4}, true},
		{"trace", traced, Options{Policy: "min_energy_eufs", Model: platformModel(t, traced.Platform), Seed: 4, Trace: true}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := runToEnd(t, c.cal, 0, c.opt)
			if c.arms && n.replayed == 0 {
				t.Error("no tick replayed; want a node that arms")
			}
			if !c.arms && (n.replayed != 0 || n.armed.on) {
				t.Errorf("%d ticks replayed, armed=%v; want a node that never arms", n.replayed, n.armed.on)
			}
			oracle := stepToEnd(t, c.cal, 0, c.opt)
			got, err := n.result()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result differs from the oracle\n got: %+v\nwant: %+v", got, want)
			}
			if g, w := instruments(t, n), instruments(t, oracle); !reflect.DeepEqual(g, w) {
				t.Errorf("instruments differ\n got: %v\nwant: %v", g, w)
			}
		})
	}
}

// TestStepTelemetryCoversEveryDriver checks the step counters are
// flushed by free and coordinated runs alike, once per node run, that
// replayed ticks are a strict subset of all ticks, and that the slow
// path's composition — MPI events delivered, signatures computed — is
// counted: zero for an OpenMP kernel under no policy, the per-node sums
// for a nested MPI code under min_energy.
func TestStepTelemetryCoversEveryDriver(t *testing.T) {
	type load struct {
		cal                    workload.Calibrated
		opt                    Options
		steps, events, signats uint64
	}
	var loads []load
	for _, name := range []string{workload.BTMZC, workload.BQCD} {
		l := load{cal: calibrated(t, name), opt: Options{Policy: "none", Seed: 2}}
		l.cal.Nodes = 3
		if name == workload.BQCD {
			l.opt = Options{Policy: "min_energy", Model: platformModel(t, l.cal.Platform), Seed: 2}
		}
		for id := 0; id < l.cal.Nodes; id++ {
			n := stepToEnd(t, l.cal, id, l.opt)
			l.steps += n.stepCount
			l.events += n.mpiCount
			if n.lib != nil {
				l.signats += uint64(n.lib.Signatures())
			}
		}
		if mpi := name == workload.BQCD; mpi != (l.events > 0) || mpi != (l.signats > 0) {
			t.Fatalf("%s: %d events, %d signatures", name, l.events, l.signats)
		}
		loads = append(loads, l)
	}

	for _, d := range []struct {
		name  string
		drive func(load) error
	}{
		{"Run", func(l load) error { _, err := Run(l.cal, l.opt); return err }},
		{"RunCoordinated", func(l load) error {
			gm, err := eargm.New(eargm.Config{BudgetW: 1e6, MaxCapPstate: 8, IntervalSec: 5})
			if err != nil {
				return err
			}
			_, err = RunCoordinated(l.cal, l.opt, gm)
			return err
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			for _, l := range loads {
				set := telemetry.NewSet()
				l.opt.Telemetry = set
				if err := d.drive(l); err != nil {
					t.Fatal(err)
				}
				tl := newSimTel(set)
				steps, replayed, runs := tl.steps.Value(), tl.replayed.Value(), tl.runs.Value()
				if runs != uint64(l.cal.Nodes) || steps != l.steps {
					t.Errorf("%s: %d runs, %d steps; want %d runs, %d steps", l.cal.Name, runs, steps, l.cal.Nodes, l.steps)
				}
				if replayed == 0 || replayed >= steps {
					t.Errorf("%s: %d of %d steps replayed; want a strict, non-empty subset", l.cal.Name, replayed, steps)
				}
				if ev, sig := tl.mpiEvents.Value(), tl.signatures.Value(); ev != l.events || sig != l.signats {
					t.Errorf("%s: %d MPI events, %d signatures; want %d, %d", l.cal.Name, ev, sig, l.events, l.signats)
				}
			}
		})
	}
}

// TestReplayedTickCounts pins the work of a fixed free run and a small
// coordinated run, read from each run's own telemetry set: every tick
// (goear_sim_steps_total), the ticks replayed while armed
// (goear_sim_replayed_steps_total) and the replays that moved them
// (goear_sim_replay_spans_total). A span that replays one tick more or
// fewer than the per-tick loop did moves the first two, a span that
// ends at another tick the third; the coordinated run caps and releases
// its nodes, so its spans end at barriers and disarms too, and 49 of
// them are under 32 ticks.
func TestReplayedTickCounts(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	mdl := platformModel(t, cal.Platform)
	small := cal
	small.Nodes = 3
	for _, c := range []struct {
		name                   string
		run                    func(Options) error
		steps, replayed, spans uint64
	}{
		{"Run", func(opt Options) error { _, err := Run(cal, opt); return err }, 14799, 14546, 121},
		{"RunCoordinated", func(opt Options) error {
			gm, err := eargm.New(eargm.Config{BudgetW: 3 * 300, MaxCapPstate: 8, IntervalSec: 5})
			if err != nil {
				return err
			}
			_, err = RunCoordinated(small, opt, gm)
			return err
		}, 49754, 48981, 459},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := telemetry.NewSet()
			if err := c.run(Options{Policy: "min_energy_eufs", Model: mdl, Seed: 3, Telemetry: set}); err != nil {
				t.Fatal(err)
			}
			tl := newSimTel(set)
			if s, r, sp := tl.steps.Value(), tl.replayed.Value(), tl.spans.Value(); s != c.steps || r != c.replayed || sp != c.spans {
				t.Errorf("%d steps, %d replayed in %d spans; want %d, %d in %d", s, r, sp, c.steps, c.replayed, c.spans)
			}
		})
	}
}
