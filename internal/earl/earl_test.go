package earl

import (
	"errors"
	"reflect"
	"testing"

	"goear/internal/metrics"
	"goear/internal/policy"
)

// fakeCtl simulates a node whose counters advance linearly with time.
type fakeCtl struct {
	now       float64
	ipsRate   float64 // instructions per second
	cpi       float64
	gbsRate   float64
	powerW    float64
	pstate    int
	uncMin    uint64
	uncMax    uint64
	uncCur    uint64
	setPstate []int
	setUncore [][2]uint64
	failSet   bool
}

func newFakeCtl() *fakeCtl {
	return &fakeCtl{
		ipsRate: 4e10, cpi: 0.5, gbsRate: 30, powerW: 330,
		pstate: 1, uncMin: 12, uncMax: 24, uncCur: 24,
	}
}

func (f *fakeCtl) SetCPUPstate(p int) error {
	if f.failSet {
		return errors.New("actuation failure")
	}
	f.pstate = p
	f.setPstate = append(f.setPstate, p)
	return nil
}

func (f *fakeCtl) SetUncoreLimits(minR, maxR uint64) error {
	if f.failSet {
		return errors.New("actuation failure")
	}
	f.uncMin, f.uncMax = minR, maxR
	if f.uncCur > maxR {
		f.uncCur = maxR
	}
	if f.uncCur < minR {
		f.uncCur = minR
	}
	f.setUncore = append(f.setUncore, [2]uint64{minR, maxR})
	return nil
}

func (f *fakeCtl) CurrentPstate() (int, error)         { return f.pstate, nil }
func (f *fakeCtl) CurrentUncoreRatio() (uint64, error) { return f.uncCur, nil }

func (f *fakeCtl) Counters() (metrics.Sample, error) {
	t := f.now
	instr := f.ipsRate * t
	return metrics.Sample{
		TimeSec:         t,
		Instructions:    instr,
		CoreCycles:      instr * f.cpi,
		DRAMBytes:       f.gbsRate * 1e9 * t,
		EnergyJ:         f.powerW * t,
		CoreFreqSeconds: 2.38 * t,
		IMCFreqSeconds:  2.39 * t,
	}, nil
}

// scriptedPolicy returns canned responses and records inputs.
type scriptedPolicy struct {
	applies []struct {
		nf policy.NodeFreqs
		st policy.State
	}
	applyCount    int
	validateOK    bool
	validateCalls int
	resets        int
	def           policy.NodeFreqs
}

func (s *scriptedPolicy) Name() string { return "scripted" }

func (s *scriptedPolicy) Apply(in policy.Inputs) (policy.NodeFreqs, policy.State, error) {
	i := s.applyCount
	if i >= len(s.applies) {
		i = len(s.applies) - 1
	}
	s.applyCount++
	a := s.applies[i]
	return a.nf, a.st, nil
}

func (s *scriptedPolicy) Validate(policy.Inputs) bool { s.validateCalls++; return s.validateOK }
func (s *scriptedPolicy) Default() policy.NodeFreqs   { return s.def }
func (s *scriptedPolicy) Reset()                      { s.resets++ }
func (s *scriptedPolicy) LastPrediction() (policy.PredictionView, bool) {
	return policy.PredictionView{}, false
}

// runIterations feeds n iterations of an MPI pattern at the given
// iteration period.
func runIterations(t *testing.T, l *Library, ctl *fakeCtl, pattern []uint32, n int, period float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, ev := range pattern {
			ctl.now += period / float64(len(pattern))
			if err := l.OnMPICall(ev, ctl.now); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := Renew(nil, Config{}, newFakeCtl()); err == nil {
		t.Error("expected error for missing policy")
	}
	sp := &scriptedPolicy{applies: []struct {
		nf policy.NodeFreqs
		st policy.State
	}{{policy.NodeFreqs{CPUPstate: 1}, policy.Ready}}, validateOK: true}
	if _, err := Renew(nil, Config{Policy: sp}, nil); err == nil {
		t.Error("expected error for missing ctl")
	}
}

func TestSignatureCadenceRespectsMinWindow(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{applies: []struct {
		nf policy.NodeFreqs
		st policy.State
	}{{policy.NodeFreqs{CPUPstate: 1}, policy.Ready}}, validateOK: true}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	pattern := []uint32{1, 2, 3, 4}
	// 1 s per iteration: after 9 iterations (9s) no signature may exist;
	// a couple more crosses the 10 s window.
	runIterations(t, l, ctl, pattern, 9, 1.0)
	if l.Signatures() != 0 {
		t.Errorf("signatures before 10s = %d, want 0", l.Signatures())
	}
	runIterations(t, l, ctl, pattern, 3, 1.0)
	if l.Signatures() != 1 {
		t.Errorf("signatures after 12s = %d, want 1", l.Signatures())
	}
	if !l.LoopDetected() {
		t.Error("loop not detected")
	}
	// Dynais needs MinRepetitions patterns to lock, so of 12 fed
	// iterations at least 9 are counted.
	if l.iterations < 9 {
		t.Errorf("iterations = %d, want >= 9", l.iterations)
	}
}

func TestPolicyAppliedAndFrequenciesSet(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 5, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 20}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	runIterations(t, l, ctl, []uint32{1, 2}, 15, 1.0)
	if sp.applyCount != 1 {
		t.Fatalf("policy applied %d times, want 1", sp.applyCount)
	}
	if len(ctl.setPstate) != 1 || ctl.setPstate[0] != 5 {
		t.Errorf("pstate actuations = %v, want [5]", ctl.setPstate)
	}
	if len(ctl.setUncore) != 1 || ctl.setUncore[0] != [2]uint64{12, 20} {
		t.Errorf("uncore actuations = %v, want [[12 20]]", ctl.setUncore)
	}
	if l.state != validatePolicy {
		t.Errorf("state = %v, want VALIDATE_POLICY", l.state)
	}
	// Subsequent signatures validate.
	runIterations(t, l, ctl, []uint32{1, 2}, 12, 1.0)
	if sp.validateCalls == 0 {
		t.Error("validate never called")
	}
}

func TestContinueKeepsApplying(t *testing.T) {
	// An iterative (eUFS-style) policy returning CONTINUE is re-applied
	// on every signature until READY.
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{
			{policy.NodeFreqs{CPUPstate: 1, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 23}, policy.Continue},
			{policy.NodeFreqs{CPUPstate: 1, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 22}, policy.Continue},
			{policy.NodeFreqs{CPUPstate: 1, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 22}, policy.Ready},
		},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	runIterations(t, l, ctl, []uint32{1, 2, 3}, 40, 1.0)
	if sp.applyCount != 3 {
		t.Errorf("policy applied %d times, want 3", sp.applyCount)
	}
	if got := len(ctl.setUncore); got != 3 {
		t.Errorf("uncore actuations = %d, want 3", got)
	}
	if l.state != validatePolicy {
		t.Errorf("state = %v, want VALIDATE_POLICY", l.state)
	}
}

func TestValidationFailureRestoresDefaults(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 6}, policy.Ready}},
		validateOK: false,
		def:        policy.NodeFreqs{CPUPstate: 1, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 24},
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	// First signature applies (READY), second fails validation.
	runIterations(t, l, ctl, []uint32{1, 2}, 24, 1.0)
	if sp.resets == 0 {
		t.Error("policy never reset after failed validation")
	}
	if ctl.pstate != 1 {
		t.Errorf("pstate = %d, want default 1 restored", ctl.pstate)
	}
	if l.state != nodePolicy {
		t.Errorf("state = %v, want NODE_POLICY (re-application)", l.state)
	}
}

func TestSignatureChangeReappliesPolicy(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 1}, policy.Ready}},
		validateOK: true,
		def:        policy.NodeFreqs{CPUPstate: 1},
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	// Settle: apply + stable reference.
	runIterations(t, l, ctl, []uint32{1, 2}, 36, 1.0)
	applied := sp.applyCount
	if applied != 1 {
		t.Fatalf("applied %d times before change, want 1", applied)
	}
	// The application's behaviour shifts drastically (memory phase).
	ctl.cpi = 1.2
	runIterations(t, l, ctl, []uint32{1, 2}, 24, 1.0)
	if sp.applyCount <= applied {
		t.Error("policy not re-applied after signature change")
	}
	if sp.resets == 0 {
		t.Error("policy not reset on signature change")
	}
}

func TestTimeGuidedModeWithoutMPI(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 3}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ctl.now += 1.0
		if err := l.OnTick(ctl.now); err != nil {
			t.Fatal(err)
		}
	}
	if sp.applyCount == 0 {
		t.Error("time-guided policy never applied")
	}
	if ctl.pstate != 3 {
		t.Errorf("pstate = %d, want 3", ctl.pstate)
	}
	if l.LoopDetected() {
		t.Error("no loop should be detected without MPI events")
	}
}

func TestOnTickIsNoOpWhileLocked(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 1}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	runIterations(t, l, ctl, []uint32{1, 2}, 15, 1.0)
	sigs := l.Signatures()
	// Ticks while locked must not produce time-guided signatures.
	for i := 0; i < 30; i++ {
		ctl.now += 1
		if err := l.OnTick(ctl.now); err != nil {
			t.Fatal(err)
		}
	}
	if l.Signatures() != sigs {
		t.Errorf("ticks produced %d signatures while locked", l.Signatures()-sigs)
	}
}

func TestEventsTraceRecorded(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 2}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp, EventLog: true}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	runIterations(t, l, ctl, []uint32{1, 2}, 30, 1.0)
	evs := l.Events()
	if len(evs) < 2 {
		t.Fatalf("events = %d, want >= 2", len(evs))
	}
	if evs[0].State != nodePolicy || !evs[0].Applied {
		t.Errorf("first event = %+v, want applied NODE_POLICY", evs[0])
	}
	if evs[1].State != validatePolicy {
		t.Errorf("second event = %+v, want VALIDATE_POLICY", evs[1])
	}
	if len(evs) != l.Signatures() || l.Applies() != 1 {
		t.Errorf("%d events for %d signatures, %d applies (want 1)", len(evs), l.Signatures(), l.Applies())
	}
}

// TestEventPathDoesNotAllocateWithoutEventLog guards the per-event
// path a simulated campaign runs millions of times: with no event log
// asked for, delivering MPI events — signatures and validated policy
// decisions included — touches the heap not at all, while the counters
// still tell what happened.
func TestEventPathDoesNotAllocateWithoutEventLog(t *testing.T) {
	ctl := newFakeCtl()
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 2}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	pattern := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	runIterations(t, l, ctl, pattern, 30, 1.0)
	if l.state != validatePolicy || l.Applies() != 1 {
		t.Fatalf("state %v after %d applies, want validated after 1", l.state, l.Applies())
	}
	sigs := l.Signatures()
	allocs := testing.AllocsPerRun(200, func() { runIterations(t, l, ctl, pattern, 1, 1.0) })
	if allocs != 0 {
		t.Errorf("one iteration of %d events allocates %v", len(pattern), allocs)
	}
	if got := l.Signatures() - sigs; got < 15 {
		t.Errorf("only %d signatures in the measured 200 s: the guard missed the signature path", got)
	}
	if l.Events() != nil {
		t.Errorf("event log kept without Config.EventLog: %d events", len(l.Events()))
	}
}

func TestActuationErrorsPropagate(t *testing.T) {
	ctl := newFakeCtl()
	ctl.failSet = true
	sp := &scriptedPolicy{
		applies: []struct {
			nf policy.NodeFreqs
			st policy.State
		}{{policy.NodeFreqs{CPUPstate: 2}, policy.Ready}},
		validateOK: true,
	}
	l, err := Renew(nil, Config{Policy: sp}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(0); err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for i := 0; i < 30 && !sawErr; i++ {
		for _, ev := range []uint32{1, 2} {
			ctl.now += 0.5
			if err := l.OnMPICall(ev, ctl.now); err != nil {
				sawErr = true
			}
		}
	}
	if !sawErr {
		t.Error("actuation failure never propagated")
	}
}

func TestStateString(t *testing.T) {
	if nodePolicy.String() != "NODE_POLICY" || validatePolicy.String() != "VALIDATE_POLICY" {
		t.Error("state names wrong")
	}
	if State(7).String() == "" {
		t.Error("unknown state must format")
	}
}

// TestRenewMatchesNew: a library renewed after a run keeps its Dynais
// hierarchy and behaves as a new one; and a renewal that fails leaves
// the library untouched.
func TestRenewMatchesNew(t *testing.T) {
	script := func() *scriptedPolicy {
		return &scriptedPolicy{
			applies: []struct {
				nf policy.NodeFreqs
				st policy.State
			}{
				{policy.NodeFreqs{CPUPstate: 3}, policy.Continue},
				{policy.NodeFreqs{CPUPstate: 2, SetIMC: true, IMCMinRatio: 12, IMCMaxRatio: 20}, policy.Ready},
			},
			validateOK: true,
			def:        policy.NodeFreqs{CPUPstate: 1},
		}
	}
	type outcome struct {
		Events              []Event
		Sigs, Applies, Iter int
		State               State
		Loop                bool
		Level, Period       int
	}
	drive := func(l *Library, ctl *fakeCtl, pattern []uint32) outcome {
		t.Helper()
		if err := l.Start(0); err != nil {
			t.Fatal(err)
		}
		runIterations(t, l, ctl, pattern, 40, 1.0)
		o := outcome{Events: l.Events(), Sigs: l.Signatures(), Applies: l.Applies(),
			Iter: l.iterations, State: l.state, Loop: l.LoopDetected()}
		o.Level, o.Period = l.NestedStructure()
		return o
	}
	// The second pattern starts with the first: a detector still locked
	// on the first would count a spurious iteration.
	first, second := []uint32{1, 2, 3}, []uint32{1, 2, 3, 4, 5}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"same shape", Config{EventLog: true}},
		{"log off", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Policy = script()
			fresh, err := Renew(nil, cfg, newFakeCtl())
			if err != nil {
				t.Fatal(err)
			}
			want := drive(fresh, fresh.ctl.(*fakeCtl), second)

			l, err := Renew(nil, Config{Policy: script(), EventLog: true}, newFakeCtl())
			if err != nil {
				t.Fatal(err)
			}
			if drive(l, l.ctl.(*fakeCtl), first).Sigs == 0 {
				t.Fatal("the first run handled no signature")
			}
			dyn := l.dyn
			cfg.Policy = script()
			ctl := newFakeCtl()
			got, err := Renew(l, cfg, ctl)
			if err != nil {
				t.Fatal(err)
			}
			if got != l {
				t.Fatal("Renew built a new library instead of renewing in place")
			}
			if l.dyn != dyn {
				t.Error("Renew rebuilt the Dynais hierarchy instead of keeping it")
			}
			if o := drive(l, ctl, second); !reflect.DeepEqual(o, want) {
				t.Errorf("renewed library:\n%+v\nnew library:\n%+v", o, want)
			}
		})
	}

	l, err := Renew(nil, Config{Policy: script()}, newFakeCtl())
	if err != nil {
		t.Fatal(err)
	}
	before := *l
	if _, err := Renew(l, Config{}, newFakeCtl()); err == nil {
		t.Error("Renew accepted a missing policy")
	}
	if !reflect.DeepEqual(*l, before) {
		t.Error("a failed Renew changed the library")
	}
}
