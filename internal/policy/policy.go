// Package policy implements EAR's energy-policy API and the policies the
// paper evaluates.
//
// The policy set is one table from name to constructor (EAR loads its
// policies as dlopen plugins; here the set is fixed at compile time),
// and New builds a policy from a Config. The EAR Library drives them
// through the same three entry points as the paper's Code 1: apply on a
// new signature (node_policy), validate once the policy reported READY,
// and default frequencies when validation fails (set_def). Every policy
// also reports the model projection behind its last apply
// (LastPrediction), so nothing that wraps or drives one asserts its type.
//
// A policy returns Ready when it has settled on an operating point and
// Continue when it wants to be re-applied on the next signature — the
// mechanism that makes the explicit-UFS extension iterative.
package policy

import (
	"fmt"
	"math"
	"sort"

	"goear/internal/metrics"
	"goear/internal/model"
)

// State is the policy return state of the paper's state diagram.
type State int

// Policy states.
const (
	// Ready: the policy settled; EARL moves to validation/stable.
	Ready State = iota
	// Continue: re-apply the policy on the next signature.
	Continue
)

// String names the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "READY"
	case Continue:
		return "CONTINUE"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// NodeFreqs is the frequency selection a policy hands back to EARL
// (the paper's node_freqs_t).
type NodeFreqs struct {
	// CPUPstate is the requested CPU pstate.
	CPUPstate int
	// SetIMC indicates the IMC window below should be programmed; when
	// false EARL leaves MSR 0x620 alone (hardware UFS stays in charge).
	SetIMC      bool
	IMCMaxRatio uint64
	IMCMinRatio uint64
}

// Inputs is what EARL passes on each invocation.
type Inputs struct {
	// Sig is the freshly computed signature.
	Sig metrics.Signature
	// CurrentPstate is the pstate the node currently requests.
	CurrentPstate int
	// CurrentUncoreRatio is the operating uncore ratio read from MSR
	// 0x621 — the hardware's current selection, which the HW-guided
	// search uses as its starting point.
	CurrentUncoreRatio uint64
}

// PredictionView is a policy's latest model projection, exposed for
// telemetry and decision logging: the predicted iteration time and
// power at the chosen operating point, plus the same projection onto
// the policy's default pstate (the reference the penalty budget is
// relative to). Ref fields are zero when no reference applies (e.g.
// busy-wait phases).
type PredictionView struct {
	TimeSec    float64
	PowerW     float64
	RefTimeSec float64
	RefPowerW  float64
}

// Policy is the plugin interface (the paper's policy_operations).
type Policy interface {
	// Name returns the registered policy name.
	Name() string
	// Apply implements node_policy: examine the signature, decide
	// frequencies, and report whether the policy settled.
	Apply(in Inputs) (NodeFreqs, State, error)
	// Validate checks, on a signature measured *after* the selection
	// was applied, that the behaviour matches the policy's
	// expectations.
	Validate(in Inputs) bool
	// Default returns the safe frequencies EARL applies when
	// validation fails (set_def).
	Default() NodeFreqs
	// LastPrediction returns the projection behind the last Apply and
	// whether there is one: EARL's decision event and the predicted
	// saving read it. A policy without a model reports none.
	LastPrediction() (PredictionView, bool)
	// Reset clears internal state so the policy can be re-applied from
	// scratch (used on application phase changes).
	Reset()
}

// Config parameterises policy construction.
type Config struct {
	// Model is the trained energy model used for predictions.
	Model *model.Model
	// CPUPolicyTh is the allowed relative time penalty for the CPU
	// frequency selection (the paper uses 0.03 and 0.05).
	CPUPolicyTh float64
	// UncPolicyTh is the additional penalty allowed for the uncore
	// selection, applied to CPI and GB/s (the paper uses 0.00-0.03).
	UncPolicyTh float64
	// HWGuided starts the IMC search from the hardware-selected uncore
	// frequency instead of the maximum (the paper's default strategy).
	HWGuided bool
	// UseAVX512Model selects the paper's extended model; disabling it
	// reproduces the pre-extension behaviour (ablation A2).
	UseAVX512Model bool
	// DefaultPstate is the policy's default CPU pstate (nominal = 1
	// for min_energy_to_solution).
	DefaultPstate int
	// UncoreMinRatio/UncoreMaxRatio is the hardware uncore window.
	UncoreMinRatio uint64
	UncoreMaxRatio uint64
	// SigChangeTh is the relative signature variation treated as an
	// application phase change (the paper accepts 15 %).
	SigChangeTh float64
	// PinBothLimits sets min=max during the IMC search instead of the
	// paper's chosen move-max-only strategy (§V-B item 3); kept as an
	// ablation of that design decision.
	PinBothLimits bool
}

// The fixed policy constants.
const (
	// uncoreStep is the IMC search step in ratio units (1 = 0.1 GHz).
	uncoreStep = 1
	// busyWaitPstateDrop is how many pstates below default the policy
	// selects for busy-waiting (GPU offload) phases.
	busyWaitPstateDrop = 2
	// minTimeMinGain is min_time_to_solution's required relative time
	// gain per frequency step: just below one 100 MHz step's ideal gain
	// at nominal (4.2 %), so frequency-sensitive code climbs all the way.
	minTimeMinGain = 0.03
)

// The paper's defaults, declared once: cpu_policy_th (5 %),
// unc_policy_th (2 %) and the signature variation taken for a phase
// change (15 %). Every other default of a run reads them.
const (
	DefaultCPUPolicyTh = 0.05
	DefaultUncPolicyTh = 0.02
	DefaultSigChangeTh = 0.15
)

// Defaults fills unset (zero) fields with the paper's defaults.
func (c Config) Defaults() Config {
	if c.CPUPolicyTh == 0 {
		c.CPUPolicyTh = DefaultCPUPolicyTh
	}
	if c.UncPolicyTh == 0 {
		c.UncPolicyTh = DefaultUncPolicyTh
	}
	if c.DefaultPstate == 0 {
		c.DefaultPstate = 1
	}
	if c.SigChangeTh == 0 {
		c.SigChangeTh = DefaultSigChangeTh
	}
	return c
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("policy: missing energy model")
	// Each range is written so that NaN, which fails every comparison,
	// falls outside it.
	case !(c.CPUPolicyTh >= 0 && c.CPUPolicyTh <= 1):
		return fmt.Errorf("policy: cpu_policy_th %g outside [0,1]", c.CPUPolicyTh)
	case !(c.UncPolicyTh >= 0 && c.UncPolicyTh <= 1):
		return fmt.Errorf("policy: unc_policy_th %g outside [0,1]", c.UncPolicyTh)
	case c.DefaultPstate < 0 || c.DefaultPstate >= c.Model.PstateCount():
		return fmt.Errorf("policy: default pstate %d outside model", c.DefaultPstate)
	case c.UncoreMinRatio == 0 || c.UncoreMinRatio > c.UncoreMaxRatio:
		return fmt.Errorf("policy: uncore window [%d,%d] invalid", c.UncoreMinRatio, c.UncoreMaxRatio)
	case !(c.SigChangeTh > 0 && c.SigChangeTh <= math.MaxFloat64):
		return fmt.Errorf("policy: signature change threshold %g must be positive and finite", c.SigChangeTh)
	}
	return c.Model.Validate()
}

// builtins is the policy set: each name with the constructor New calls
// on a defaulted, validated Config.
var builtins = map[string]func(Config) Policy{
	Monitoring:    func(cfg Config) Policy { return &monitoring{cfg: cfg} },
	MinEnergy:     func(cfg Config) Policy { return newMinEnergy(cfg) },
	MinEnergyEUFS: func(cfg Config) Policy { return newEUFS(MinEnergyEUFS, newMinEnergy(cfg), cfg) },
	MinTime:       func(cfg Config) Policy { return newMinTime(cfg) },
	MinTimeEUFS: func(cfg Config) Policy {
		p := newEUFS(MinTimeEUFS, newMinTime(cfg), cfg)
		// The paper's §VIII direction for min_time: besides lowering the
		// uncore on compute phases, *raise* it for memory-bound phases
		// where the hardware heuristic settled low — performance first.
		p.raiseForMemBound = true
		return p
	},
	DUF: func(cfg Config) Policy { return newDUF(cfg) },
}

// New constructs the named policy.
func New(name string, cfg Config) (Policy, error) {
	build, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	cfg = cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return build(cfg), nil
}

// Renew returns old, Reset, when New(name, cfg) would build the same
// policy: the same name and defaulted Config. Otherwise it returns
// New(name, cfg). A pooled simulator node renews
// its policy each run, keeping the buffers (prediction tables) the
// policy owns.
func Renew(old Policy, name string, cfg Config) (Policy, error) {
	if old != nil && builtAs(old, name, cfg.Defaults()) {
		old.Reset()
		return old, nil
	}
	return New(name, cfg)
}

// configured is implemented by every policy in builtins: it returns the
// Config its constructor received, which Renew compares.
type configured interface{ config() Config }

// builtAs reports whether p is what New(name, cfg) returns, up to its
// run state.
func builtAs(p Policy, name string, cfg Config) bool {
	c, ok := p.(configured)
	return ok && p.Name() == name && c.config() == cfg
}

// Names lists the policies New builds, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Policy names.
const (
	Monitoring    = "monitoring"
	MinEnergy     = "min_energy"
	MinEnergyEUFS = "min_energy_eufs"
	MinTime       = "min_time"
	MinTimeEUFS   = "min_time_eufs"
	// DUF names the controller-based baseline.
	DUF = "duf"
)

// isBusyWaiting classifies a signature as a busy-wait (accelerator
// offload) phase: negligible main-memory traffic with low CPI, the
// pattern EAR detects for CUDA kernels whose host core only spins.
func isBusyWaiting(sig metrics.Signature) bool {
	return metrics.Classify(sig) == metrics.BusyWaiting
}
