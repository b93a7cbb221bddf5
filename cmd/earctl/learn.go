package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"goear/internal/experiments"
	"goear/internal/model"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// learnCmd runs the energy-model learning phase, mirroring how EAR
// trains its per-architecture coefficients against kernels on real
// nodes: a grid of probe workloads is executed across every pstate pair
// of the simulated platform and the projection coefficients are fitted
// by least squares. The model is written as JSON for earsim -model.
func learnCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("learn", flag.ContinueOnError)
	plName := platformFlag(fs)
	outPath := fs.String("o", "-", "output JSON path ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl, err := workload.PlatformByName(*plName)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "training energy model for %s (%d probes x %d pstates)...\n",
		pl.Machine.CPU.Name,
		len(model.DefaultProbes(pl.Machine.CPU.TotalCores())),
		pl.Machine.CPU.PstateCount())
	m, err := model.TrainForCPU(pl.Machine, pl.Power)
	if err != nil {
		return err
	}
	mae, err := experiments.HeldOutCPIError(pl, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "held-out CPI projection error: %.2f%%\n", mae*100)

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if *outPath == "-" {
		data = append(data, '\n') // the file is the bare JSON; the terminal gets a line end
	}
	if err := telemetry.Sink(*outPath, out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
	}
	if *outPath != "-" {
		fmt.Fprintf(out, "model written to %s\n", *outPath)
	}
	return nil
}
