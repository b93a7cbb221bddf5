// Package earl implements the EAR Library runtime: the dynamic,
// transparent component that attaches to a running application,
// discovers its iterative structure (Dynais for MPI codes, time-guided
// otherwise), computes loop signatures every ten or more seconds, and
// drives the configured energy policy through the paper's Code 1 state
// machine:
//
//	NODE_POLICY    — apply the policy on each new signature until it
//	                 reports READY, actuating the frequencies it picks;
//	VALIDATE_POLICY — check subsequent signatures against the policy's
//	                 expectations; on failure restore defaults and
//	                 re-enter NODE_POLICY.
//
// While validated-stable, EARL watches for application signature changes
// (15 % on CPI or GB/s by default) and re-applies the policy when the
// behaviour shifts.
package earl

import (
	"fmt"

	"goear/internal/dynais"
	"goear/internal/metrics"
	"goear/internal/policy"
)

// Ctl is EARL's view of the node: counter access and frequency
// actuation. The simulator's node implements it; on real hardware it
// would be backed by msr/cpufreq.
type Ctl interface {
	// SetCPUPstate requests the pstate on every socket.
	SetCPUPstate(p int) error
	// SetUncoreLimits programs MSR 0x620 on every socket.
	SetUncoreLimits(minRatio, maxRatio uint64) error
	// CurrentPstate returns the currently requested pstate.
	CurrentPstate() (int, error)
	// CurrentUncoreRatio returns the operating uncore ratio (MSR 0x621).
	CurrentUncoreRatio() (uint64, error)
	// Counters snapshots the node's cumulative counters; EARL fills in
	// the iteration count itself.
	Counters() (metrics.Sample, error)
}

// State is the Code 1 runtime state.
type State int

// Runtime states.
const (
	nodePolicy State = iota
	validatePolicy
)

// String names the state.
func (s State) String() string {
	switch s {
	case nodePolicy:
		return "NODE_POLICY"
	case validatePolicy:
		return "VALIDATE_POLICY"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterises the library.
type Config struct {
	// Policy is the energy policy plugin to drive.
	Policy policy.Policy
	// MinWindowSec is the minimum signature window (>= the DC energy
	// meter's resolution; the paper uses 10 s).
	MinWindowSec float64
	// SigChangeTh re-applies the policy when a stable signature drifts
	// beyond this relative threshold (the paper accepts 15 %).
	SigChangeTh float64
	// EventLog retains every signature-handling Event for Events. Off,
	// the library only counts (Signatures, Applies): a campaign of
	// thousands of runs that never reads the trace keeps none.
	EventLog bool
}

// The fixed Dynais shape.
const (
	// maxLoopPeriod bounds Dynais period detection.
	maxLoopPeriod = 64
	// nestingLevels is how many Dynais levels are stacked: the inner
	// loop plus one nesting level, enough for the outer time-step
	// structure of the paper's applications.
	nestingLevels = 2
)

// defaults fills unset fields.
func (c Config) defaults() Config {
	if c.MinWindowSec == 0 {
		c.MinWindowSec = metrics.MinWindowSeconds
	}
	if c.SigChangeTh == 0 {
		c.SigChangeTh = policy.DefaultSigChangeTh
	}
	return c
}

// Event records one signature-handling decision for tracing.
type Event struct {
	TimeSec     float64
	Sig         metrics.Signature
	State       State
	PolicyState policy.State
	Freqs       policy.NodeFreqs
	Applied     bool
	Validated   bool
	SigChange   bool
	// Pred is the policy's model projection behind this decision (zero
	// when the policy exposes none); HavePred distinguishes the two.
	Pred     policy.PredictionView
	HavePred bool
}

// Library is one node's EARL instance.
type Library struct {
	cfg Config
	ctl Ctl
	dyn *dynais.Hierarchy

	state      State
	last       metrics.Sample
	haveLast   bool
	lastSigAt  float64
	iterations int

	stable     metrics.Signature
	haveStable bool

	events []Event // kept only with Config.EventLog
	// signatures and applied decisions counted, for introspection
	sigCount int
	applies  int
}

// Renew builds a library for a new run, in place of l; a nil l builds
// a fresh one. The Dynais hierarchy (with its detector windows) is
// Reset and the event buffer kept, so renewing a node's library
// allocates nothing. On a config error l is left as it was. Call Start
// before feeding events.
func Renew(l *Library, cfg Config, ctl Ctl) (*Library, error) {
	cfg = cfg.defaults()
	if cfg.Policy == nil {
		return nil, fmt.Errorf("earl: missing policy")
	}
	if ctl == nil {
		return nil, fmt.Errorf("earl: missing node control")
	}
	if l == nil {
		l = new(Library)
	}
	d := l.dyn
	if d != nil {
		d.Reset()
	} else {
		var err error
		if d, err = dynais.NewHierarchy(nestingLevels, maxLoopPeriod); err != nil {
			return nil, err
		}
	}
	*l = Library{cfg: cfg, ctl: ctl, dyn: d, state: nodePolicy, events: l.events[:0]}
	return l, nil
}

// Start records the baseline counter sample at application begin.
func (l *Library) Start(now float64) error {
	s, err := l.ctl.Counters()
	if err != nil {
		return err
	}
	s.TimeSec = now
	s.Iterations = 0
	l.last, l.haveLast = s, true
	l.lastSigAt = now
	return nil
}

// OnMPICall feeds one intercepted MPI event (the PMPI path). When
// Dynais completes an iteration and at least MinWindowSec elapsed since
// the last signature, a new signature is computed and processed.
func (l *Library) OnMPICall(ev uint32, now float64) error {
	sts := l.dyn.Push(ev)
	switch sts[0] {
	case dynais.NewIteration:
		l.iterations++
		if now-l.lastSigAt >= l.cfg.MinWindowSec {
			return l.computeSignature(now)
		}
	case dynais.EndLoop:
		// Structure lost: next signature will be time-guided until a
		// new loop locks.
	}
	return nil
}

// OnTick drives time-guided mode for applications without detected MPI
// structure. It is a no-op while Dynais is locked.
func (l *Library) OnTick(now float64) error {
	if l.dyn.Locked(0) {
		return nil
	}
	if now-l.lastSigAt >= l.cfg.MinWindowSec {
		return l.computeSignature(now)
	}
	return nil
}

// computeSignature builds the window signature and runs the Code 1
// state machine.
func (l *Library) computeSignature(now float64) error {
	cur, err := l.ctl.Counters()
	if err != nil {
		return err
	}
	cur.TimeSec = now
	cur.Iterations = l.iterations
	if !l.haveLast {
		l.last, l.haveLast = cur, true
		l.lastSigAt = now
		return nil
	}
	sig, err := metrics.Compute(l.last, cur)
	if err != nil {
		// Counter anomalies (e.g. an energy reading not yet published)
		// skip this window rather than failing the application.
		l.last = cur
		l.lastSigAt = now
		return nil
	}
	l.last = cur
	l.lastSigAt = now
	l.sigCount++
	return l.newSignature(sig, now)
}

// newSignature is the paper's state_new_signature.
func (l *Library) newSignature(sig metrics.Signature, now float64) error {
	in, err := l.inputs(sig)
	if err != nil {
		return err
	}
	ev := Event{TimeSec: now, Sig: sig, State: l.state}

	switch l.state {
	case nodePolicy:
		nf, pst, err := l.cfg.Policy.Apply(in)
		if err != nil {
			return fmt.Errorf("earl: policy apply: %w", err)
		}
		if err := l.applyFreqs(nf); err != nil {
			return err
		}
		ev.PolicyState, ev.Freqs, ev.Applied = pst, nf, true
		ev.Pred, ev.HavePred = l.cfg.Policy.LastPrediction()
		if pst == policy.Ready {
			l.state = validatePolicy
			l.haveStable = false
		}

	case validatePolicy:
		ok := l.cfg.Policy.Validate(in)
		ev.Validated = ok
		if ok && !l.haveStable {
			l.stable, l.haveStable = sig, true
			break
		}
		ev.SigChange = ok && metrics.Changed(l.stable, sig, l.cfg.SigChangeTh)
		if !ok || ev.SigChange {
			// set_def, on a failed validation or a signature change:
			// restore defaults and re-run the policy.
			def := l.cfg.Policy.Default()
			l.cfg.Policy.Reset()
			if err := l.applyFreqs(def); err != nil {
				return err
			}
			ev.Freqs, ev.Applied = def, true
			l.state = nodePolicy
			l.haveStable = false
		}
	}

	if ev.Applied {
		l.applies++
	}
	if l.cfg.EventLog {
		l.events = append(l.events, ev)
	}
	return nil
}

// inputs assembles the policy inputs from the node state.
func (l *Library) inputs(sig metrics.Signature) (policy.Inputs, error) {
	ps, err := l.ctl.CurrentPstate()
	if err != nil {
		return policy.Inputs{}, err
	}
	unc, err := l.ctl.CurrentUncoreRatio()
	if err != nil {
		return policy.Inputs{}, err
	}
	return policy.Inputs{
		Sig:                sig,
		CurrentPstate:      ps,
		CurrentUncoreRatio: unc,
	}, nil
}

// applyFreqs actuates a policy frequency selection.
func (l *Library) applyFreqs(nf policy.NodeFreqs) error {
	if err := l.ctl.SetCPUPstate(nf.CPUPstate); err != nil {
		return err
	}
	if nf.SetIMC {
		if err := l.ctl.SetUncoreLimits(nf.IMCMinRatio, nf.IMCMaxRatio); err != nil {
			return err
		}
	}
	return nil
}

// Signatures returns how many signatures have been processed.
func (l *Library) Signatures() int { return l.sigCount }

// Applies returns how many signatures ended in a frequency actuation
// (a policy selection or a restore of the defaults).
func (l *Library) Applies() int { return l.applies }

// Events returns the decision trace; nil unless Config.EventLog is set
// and a signature was handled. It is the library's own buffer: valid
// until the next Renew.
func (l *Library) Events() []Event {
	if len(l.events) == 0 {
		return nil
	}
	return l.events
}

// LoopDetected reports whether Dynais currently has a lock.
func (l *Library) LoopDetected() bool { return l.dyn.Locked(0) }

// NestedStructure returns the highest locked Dynais level and its
// period: level 0 is the innermost MPI loop; higher levels describe
// outer (time-step) structure. It returns (-1, 0) when nothing is
// locked.
func (l *Library) NestedStructure() (level, period int) {
	return l.dyn.TopLocked()
}
