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

func drivePolicy(p Policy, ins []Inputs) []step {
	out := make([]step, len(ins))
	for i, in := range ins {
		s := &out[i]
		nf, st, err := p.Apply(in)
		s.NF, s.State = nf, st
		if err != nil {
			s.Err = err.Error()
		}
		if pr, ok := p.(Predictor); ok {
			s.Pred, s.HavePred = pr.LastPrediction()
		}
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
func TestResetMatchesFresh(t *testing.T) {
	cfg := testConfig(t)
	ins := resetInputs()
	dirty := make([]Inputs, len(ins))
	for i := range ins {
		dirty[i] = ins[len(ins)-1-i]
	}
	for _, name := range Names() {
		fresh, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := drivePolicy(fresh, ins)
		fails := 0
		for _, s := range want {
			if !s.ValidFar {
				fails++
			}
		}
		if fails == 0 && name != Monitoring {
			t.Errorf("%s: no Validate failure in the sequence", name)
		}

		p, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, how := range []string{"Reset", "Renew"} {
			drivePolicy(p, dirty)
			if how == "Reset" {
				p.Reset()
			} else if r, err := Renew(p, name, cfg); err != nil || r != p {
				t.Fatalf("%s: Renew with the same config did not reuse the instance (err %v)", name, err)
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
// instance exactly when name and defaulted Config both match, and builds
// anew otherwise.
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
	if p := renew(old, MinEnergyEUFS, other); p == old {
		t.Error("changed config: reused")
	}
	if p := renew(old, MinTimeEUFS, cfg); p == old || p.Name() != MinTimeEUFS {
		t.Errorf("changed name: got %s, reused %v", p.Name(), p == old)
	}
	if _, err := Renew(old, "no_such_policy", cfg); err == nil {
		t.Error("unknown name accepted")
	}

}
