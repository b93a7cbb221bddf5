package policy

import (
	"reflect"
	"testing"

	"goear/internal/metrics"
)

// step is everything a policy shows EARL for one input: the Apply
// outcome, the prediction behind it, and Validate on a signature close
// to the input and on one far from it.
type step struct {
	NF        NodeFreqs
	State     State
	Err       string
	Pred      PredictionView
	HavePred  bool
	ValidNear bool
	ValidFar  bool
	Default   NodeFreqs
}

// resetInputs walks every built-in policy through a selection, a phase
// change, busy waiting, an invalid signature and a return to the first
// phase, with the hardware uncore moving underneath.
func resetInputs() []Inputs {
	return []Inputs{
		{Sig: memBoundSig(), CurrentPstate: 1, CurrentUncoreRatio: 24},
		{Sig: memBoundSig(), CurrentPstate: 3, CurrentUncoreRatio: 22},
		{Sig: memBoundSig(), CurrentPstate: 3, CurrentUncoreRatio: 21},
		{Sig: cpuBoundSig(), CurrentPstate: 3, CurrentUncoreRatio: 20},
		{Sig: cpuBoundSig(), CurrentPstate: 1, CurrentUncoreRatio: 19},
		{Sig: avxSig(), CurrentPstate: 1, CurrentUncoreRatio: 24},
		{Sig: busyWaitSig(), CurrentPstate: 2, CurrentUncoreRatio: 18},
		{Sig: metrics.Signature{}, CurrentPstate: 2, CurrentUncoreRatio: 18},
		{Sig: memBoundSig(), CurrentPstate: 1, CurrentUncoreRatio: 24},
		{Sig: memBoundSig(), CurrentPstate: 2, CurrentUncoreRatio: 23},
	}
}

// drivePolicy returns what p shows before its first Apply, then one
// step per input.
func drivePolicy(p Policy, ins []Inputs) []step {
	out := make([]step, 1+len(ins))
	for i := range out {
		s, in := &out[i], ins[max(i-1, 0)]
		if i > 0 {
			nf, st, err := p.Apply(in)
			s.NF, s.State = nf, st
			if err != nil {
				s.Err = err.Error()
			}
		}
		s.Pred, s.HavePred = p.LastPrediction()
		near, far := in, in
		near.Sig.CPI *= 1.01
		far.Sig.CPI *= 3
		far.Sig.GBs /= 3
		s.ValidNear = p.Validate(near)
		s.ValidFar = p.Validate(far)
		s.Default = p.Default()
	}
	return out
}

// TestResetMatchesFresh: for every registered policy, Reset restores
// exactly what construction builds. A policy driven through one input
// sequence and then Reset answers a second sequence as a new instance
// does — which is what lets Renew hand a recycled node its old policy.
// Renewed in place under a changed config, it answers as a new instance
// built with that config does.
func TestResetMatchesFresh(t *testing.T) {
	cfg := testConfig(t)
	changed := cfg
	changed.CPUPolicyTh, changed.UncPolicyTh, changed.SigChangeTh = 0.08, 0.01, 0.2
	changed.HWGuided, changed.UseAVX512Model, changed.PinBothLimits = false, false, true
	changed.DefaultPstate = 2
	ins := resetInputs()
	dirty := make([]Inputs, len(ins))
	for i := range ins {
		dirty[i] = ins[len(ins)-1-i]
	}
	fresh := func(name string, c Config) []step {
		t.Helper()
		p, err := New(name, c)
		if err != nil {
			t.Fatal(err)
		}
		return drivePolicy(p, ins)
	}
	for _, name := range Names() {
		want := fresh(name, cfg)
		fails := 0
		for _, s := range want {
			if !s.ValidFar {
				fails++
			}
		}
		if fails == 0 && name != Monitoring {
			t.Errorf("%s: no Validate failure in the sequence", name)
		}
		wantChanged := fresh(name, changed)
		if name != Monitoring && reflect.DeepEqual(wantChanged, want) {
			t.Errorf("%s: the changed config answers the sequence as the first does", name)
		}

		p, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, how := range []string{"Reset", "Renew", "Renew with a changed config", "Renew back"} {
			drivePolicy(p, dirty)
			want, c := want, cfg
			switch how {
			case "Reset":
				p.Reset()
			case "Renew with a changed config":
				want, c = wantChanged, changed
				fallthrough
			default:
				if r, err := Renew(p, name, c); err != nil || r != p {
					t.Fatalf("%s: %s did not reuse the instance (err %v)", name, how, err)
				}
			}
			got := drivePolicy(p, ins)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s input %d after %s:\n got %+v\nwant %+v", name, i, how, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestRenewReusesOnlyWhatNewWouldBuild: Renew hands back the old
// instance exactly when the name matches — reconfigured when the
// defaulted Config differs (TestResetMatchesFresh holds it to New) —
// and builds anew for another name.
func TestRenewReusesOnlyWhatNewWouldBuild(t *testing.T) {
	cfg := testConfig(t)
	renew := func(old Policy, name string, c Config) Policy {
		t.Helper()
		p, err := Renew(old, name, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := renew(nil, MinEnergyEUFS, cfg)
	if p := renew(old, MinEnergyEUFS, cfg); p != old {
		t.Error("same name and config: not reused")
	}
	undefaulted := cfg
	undefaulted.SigChangeTh, undefaulted.DefaultPstate = 0, 0
	if p := renew(old, MinEnergyEUFS, undefaulted); p != old {
		t.Error("a config equal after Defaults: not reused")
	}
	other := cfg
	other.UncPolicyTh = 0.03
	if p := renew(old, MinEnergyEUFS, other); p != old {
		t.Error("changed config: not reused")
	}
	if p := renew(old, MinTimeEUFS, cfg); p == old || p.Name() != MinTimeEUFS {
		t.Errorf("changed name: got %s, reused %v", p.Name(), p == old)
	}
	if _, err := Renew(old, "no_such_policy", cfg); err == nil {
		t.Error("unknown name accepted")
	}

}
