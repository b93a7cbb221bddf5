// Command earsim runs one catalogue workload on the simulated cluster
// under a chosen energy policy and reports the paper-style metrics,
// optionally comparing against the nominal-frequency baseline and
// appending the run to an accounting database (the eard/eacct flow).
//
// Examples:
//
//	earsim -workload BT-MZ.C -policy min_energy_eufs -compare
//	earsim -workload HPCG -policy min_energy -cpu-th 0.05 -runs 3
//	earsim -workload BT-MZ.C -pin-uncore 1.8
//	earsim -workload GROMACS(I) -policy min_energy_eufs -not-guided
//	earsim -workload HPCG -policy min_energy_eufs -acct jobs.db -job j42
//	earsim -workload BT-MZ.C -nodes 4096 -powercap 1.1e6
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"

	"goear/internal/cpu"
	"goear/internal/earconf"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eargm"
	"goear/internal/experiments"
	"goear/internal/model"
	"goear/internal/policy"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/units"
	"goear/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "earsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("earsim", flag.ContinueOnError)
	var (
		wl        = fs.String("workload", "BT-MZ.C", "catalogue workload name")
		pol       = fs.String("policy", "none", "energy policy (none, "+strings.Join(policy.Names(), ", ")+")")
		cpuTh     = fs.Float64("cpu-th", policy.DefaultCPUPolicyTh, "cpu_policy_th: allowed relative time penalty, in (0,1]")
		uncTh     = fs.Float64("unc-th", policy.DefaultUncPolicyTh, "unc_policy_th: allowed CPI/GB/s degradation, in (0,1]")
		notGuided = fs.Bool("not-guided", false, "start the uncore search from the maximum instead of the HW selection")
		runs      = fs.Int("runs", 3, "averaged runs (the paper uses 3)")
		seed      = fs.Int64("seed", 1, "noise seed")
		compare   = fs.Bool("compare", false, "also run the nominal baseline and print savings")
		pinCPU    = fs.Int("pin-cpu-pstate", -1, "pin the CPU pstate (disables DVFS)")
		pinUnc    = fs.Float64("pin-uncore", 0, "pin the uncore frequency in GHz (0 = hardware UFS)")
		modelPath = fs.String("model", "", "energy-model JSON from earctl learn (default: train in-process)")
		acctPath  = fs.String("acct", "", "accounting state file to append the run's node records to (the file eardbd -db and earctl acct read)")
		jobID     = fs.String("job", "job0", "job id for accounting")
		tracePath = fs.String("trace", "", "write node 0's 1 Hz time series (power, frequencies, CPI) as CSV")
		specPath  = fs.String("spec", "", "JSON workload definition to run instead of a catalogue entry")
		template  = fs.Bool("spec-template", false, "print a starter workload definition and exit")
		powercapW = fs.Float64("powercap", 0, "cluster DC power budget in watts (0 = unmanaged); runs under the global manager")
		nodes     = fs.Int("nodes", 0, "override the workload's node count, scaling the run to cluster size (0 = as catalogued)")
		confPath  = fs.String("conf", "", "ear.conf-style site configuration providing defaults and policy authorisation")
		telAddr   = fs.String("telemetry", "", "HTTP address serving /metrics, /events, /healthz and /readyz for the run's duration")
		metricsTo = fs.String("metrics-out", "", "write the final Prometheus metrics snapshot to this file (- = stdout)")
		eventsTo  = fs.String("events-out", "", "write the final telemetry event log as JSON lines to this file (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Telemetry is opt-in: any exposure flag builds the set the run
	// counts into, passed in its options and the manager's config.
	var set *telemetry.Set
	if *telAddr != "" || *metricsTo != "" || *eventsTo != "" {
		set = telemetry.NewSet()
		if *telAddr != "" {
			ln, err := net.Listen("tcp", *telAddr)
			if err != nil {
				return err
			}
			defer func() { _ = ln.Close() }()
			fmt.Fprintf(out, "telemetry: serving http://%s/metrics for the run\n", ln.Addr())
			// The probe endpoints make a scraped run look like the
			// daemons: alive while serving, ready while the simulation
			// is still producing samples.
			health := telemetry.NewHealth()
			health.Register(func() telemetry.Check {
				return telemetry.Check{Name: "run", OK: true, Detail: "simulation running"}
			})
			telemetry.ServeEndpoint(ln, set, health, nil)
		}
		defer func() {
			err := telemetry.Sink(*metricsTo, out, set.Reg().WritePrometheus)
			if err == nil {
				err = telemetry.Sink(*eventsTo, out, set.Rec().WriteJSONLines)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "earsim: telemetry dump:", err)
			}
		}()
	}

	conf, err := earconf.Load(*confPath)
	if err != nil {
		return err
	}
	if *confPath != "" {
		// Flags left at their defaults inherit the site configuration.
		flagSet := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })
		if !flagSet["policy"] {
			*pol = conf.DefaultPolicy
		}
		if !flagSet["cpu-th"] {
			*cpuTh = conf.DefaultCPUPolicyTh
		}
		if !flagSet["unc-th"] {
			*uncTh = conf.DefaultUncPolicyTh
		}
		if !flagSet["powercap"] && conf.ClusterPowerBudgetW > 0 {
			*powercapW = conf.ClusterPowerBudgetW
		}
	}
	if !conf.Authorized(*pol) {
		return fmt.Errorf("policy %q not authorised by site configuration (allowed: %v)",
			*pol, conf.AuthorizedPolicies)
	}

	if *template {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(workload.Template())
	}

	// A zero threshold would run at the paper's default, not at zero.
	if !(*cpuTh > 0 && *cpuTh <= 1) {
		return fmt.Errorf("-cpu-th must lie in (0,1] (got %v)", *cpuTh)
	}
	if !(*uncTh > 0 && *uncTh <= 1) {
		return fmt.Errorf("-unc-th must lie in (0,1] (got %v)", *uncTh)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1 (got %d)", *runs)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes must be 0 (as catalogued) or a node count (got %d)", *nodes)
	}
	if v := *pinUnc; v < 0 || math.IsNaN(v) || math.IsInf(v, 1) {
		return fmt.Errorf("-pin-uncore must be 0 or a finite positive GHz value (got %v)", *pinUnc)
	}
	if v := *powercapW; v < 0 || math.IsNaN(v) || math.IsInf(v, 1) {
		return fmt.Errorf("-powercap must be 0 or a finite positive budget in watts (got %v)", *powercapW)
	}
	var spec workload.Spec
	if *specPath != "" {
		spec, err = workload.LoadSpecFile(*specPath)
	} else {
		spec, err = workload.Lookup(*wl)
	}
	if err != nil {
		return err
	}
	if *nodes > 0 {
		spec.Nodes = *nodes
	}

	opt := sim.Options{
		Policy:       *pol,
		CPUTh:        *cpuTh,
		UncTh:        *uncTh,
		HWGuidedOff:  *notGuided,
		Seed:         *seed,
		Trace:        *tracePath != "",
		MinWindowSec: conf.MinSignatureWindowSec,
		SigChangeTh:  conf.SignatureChangeTh,
		DecisionLog:  set != nil,
		Telemetry:    set,
	}
	if *pinCPU >= 0 {
		opt.FixedCPUPstate = pinCPU
	}
	if *pinUnc > 0 {
		// At least ratio 1: a frequency that rounds to 0 is refused as
		// out of range, not read as no pin.
		opt.FixedUncoreRatio = max(units.GHz(*pinUnc).Ratio(cpu.BusClock), 1)
	}
	if *pol != "none" && *pol != "" && *modelPath != "" {
		m, err := loadModel(*modelPath)
		if err != nil {
			return err
		}
		opt.Model = m
	}

	// The context calibrates the spec, trains its platform's model when
	// no -model is given, and fans out over GOMAXPROCS; results are
	// byte-identical at any worker count.
	ctx := &experiments.Context{Runs: *runs}
	var res sim.Result
	if *powercapW > 0 {
		var st eargm.Stats
		res, st, err = ctx.RunPowercapped(spec, opt, eargm.Config{BudgetW: *powercapW, MaxCapPstate: 10, Telemetry: set})
		if err != nil {
			return err
		}
		printResult(out, "run (powercapped)", res)
		fmt.Fprintf(out, "  powercap   %9.2f W budget, peak %.2f W, over budget %.1f%% of intervals, final cap p%d\n",
			*powercapW, st.PeakW, st.OverBudgetPct, st.FinalCap)
	} else {
		res, err = ctx.RunSpec(spec, opt)
		if err != nil {
			return err
		}
		printResult(out, "run", res)
	}

	// Feed the run's policy decisions into the set's event recorder so
	// /events and -events-out carry them.
	if set != nil {
		res.RecordDecisions(set.Rec())
	}

	if *compare {
		bopt := sim.Baseline()
		bopt.Telemetry = set
		base, err := ctx.RunSpec(spec, bopt)
		if err != nil {
			return err
		}
		printResult(out, "baseline", base)
		d := sim.DeltaOf(base, res)
		fmt.Fprintf(out, "\nvs nominal baseline:\n")
		fmt.Fprintf(out, "  time penalty:  %+.2f%%\n", d.TimePenaltyPct)
		fmt.Fprintf(out, "  power saving:  %+.2f%% (DC)  %+.2f%% (RAPL PCK)\n", d.PowerSavingPct, d.PkgSavingPct)
		fmt.Fprintf(out, "  energy saving: %+.2f%%\n", d.EnergySavingPct)
	}

	if *acctPath != "" {
		if err := appendAccounting(*acctPath, *jobID, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "\naccounting: recorded %d node(s) under job %s in %s\n",
			len(res.Nodes), *jobID, *acctPath)
	}
	if *tracePath != "" {
		if err := telemetry.Sink(*tracePath, out, func(w io.Writer) error { return writeTrace(w, res.Nodes[0].Trace) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntrace: %d samples written to %s\n",
			len(res.Nodes[0].Trace), *tracePath)
	}
	return nil
}

// writeTrace dumps a node time series as CSV for plotting.
func writeTrace(w io.Writer, trace []sim.TracePoint) error {
	if _, err := fmt.Fprintln(w, "time_s,power_w,cpu_ghz,imc_ghz,cpi,gbs,cpu_pstate,unc_max_ratio"); err != nil {
		return err
	}
	for _, p := range trace {
		if _, err := fmt.Fprintf(w, "%.2f,%.2f,%.3f,%.3f,%.4f,%.3f,%d,%d\n",
			p.TimeSec, p.PowerW, p.CPUGHz, p.IMCGHz, p.CPI, p.GBs, p.CPUPstate, p.UncMax); err != nil {
			return err
		}
	}
	return nil
}

// loadModel reads an energy model written by earctl learn.
func loadModel(path string) (*model.Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m model.Model
	if err := m.UnmarshalJSON(b); err != nil {
		return nil, fmt.Errorf("parsing model %s: %w", path, err)
	}
	return &m, nil
}

func printResult(out io.Writer, label string, r sim.Result) {
	fmt.Fprintf(out, "%s: %s under %s on %d node(s)\n", label, r.Workload, r.Policy, len(r.Nodes))
	fmt.Fprintf(out, "  time       %9.2f s\n", r.TimeSec)
	fmt.Fprintf(out, "  DC power   %9.2f W   (RAPL PCK %.2f W)\n", r.AvgPowerW, r.AvgPkgPowerW)
	fmt.Fprintf(out, "  energy     %9.0f J per node\n", r.EnergyJ)
	fmt.Fprintf(out, "  avg CPU    %9.2f GHz\n", r.AvgCPUGHz)
	fmt.Fprintf(out, "  avg IMC    %9.2f GHz\n", r.AvgIMCGHz)
	fmt.Fprintf(out, "  CPI %.3f   GB/s %.2f\n", r.AvgCPI, r.AvgGBs)
}

func appendAccounting(path, jobID string, r sim.Result) error {
	db, saved, err := eardbd.LoadState(path)
	if errors.Is(err, os.ErrNotExist) {
		db, err = eard.NewDB(), nil // first run into this file
	}
	if err != nil {
		return err
	}
	for i, n := range r.Nodes {
		rec := eard.JobRecord{
			JobID: jobID, StepID: "0", Node: fmt.Sprintf("node%03d", i),
			App: r.Workload, Policy: r.Policy,
			TimeSec: n.TimeSec, EnergyJ: n.EnergyJ, AvgPower: n.AvgPowerW,
			AvgCPU: n.AvgCPUGHz, AvgIMC: n.AvgIMCGHz, AvgCPI: n.AvgCPI, AvgGBs: n.AvgGBs,
		}
		if err := db.Insert(rec); err != nil {
			return err
		}
	}
	return eardbd.SaveState(path, db, saved)
}
