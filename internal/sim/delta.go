package sim

import "goear/internal/units"

// Baseline returns the options of the paper's reference run: nominal
// CPU frequency, hardware UFS, no policy. Every saving and penalty the
// evaluation reports is measured against a run with these options.
func Baseline() Options { return Options{Policy: "none", Seed: 100} }

// Delta expresses a run against a reference run with the paper's
// reporting conventions: penalties positive when worse, savings positive
// when better.
type Delta struct {
	TimePenaltyPct  float64
	PowerSavingPct  float64
	EnergySavingPct float64
	GBsPenaltyPct   float64
	PkgSavingPct    float64
	AvgCPUGHz       float64
	AvgIMCGHz       float64
	EfficiencyRatio float64 // energy saving / time penalty
}

// DeltaOf measures r against base.
func DeltaOf(base, r Result) Delta {
	d := Delta{
		TimePenaltyPct:  units.PercentChange(base.TimeSec, r.TimeSec),
		PowerSavingPct:  -units.PercentChange(base.AvgPowerW, r.AvgPowerW),
		EnergySavingPct: -units.PercentChange(base.EnergyJ, r.EnergyJ),
		GBsPenaltyPct:   -units.PercentChange(base.AvgGBs, r.AvgGBs),
		PkgSavingPct:    -units.PercentChange(base.AvgPkgPowerW, r.AvgPkgPowerW),
		AvgCPUGHz:       r.AvgCPUGHz,
		AvgIMCGHz:       r.AvgIMCGHz,
	}
	if d.TimePenaltyPct > 0.01 {
		d.EfficiencyRatio = d.EnergySavingPct / d.TimePenaltyPct
	}
	return d
}
