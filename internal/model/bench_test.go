package model

import (
	"testing"

	"goear/internal/metrics"
	"goear/internal/workload"
)

// BenchmarkTrainForCPU is the learning phase on SD530: 3,200
// evaluations, then 256 pair fits, rows over GOMAXPROCS.
func BenchmarkTrainForCPU(b *testing.B) {
	pl := workload.SD530()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForCPU(pl.Machine, pl.Power); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredict is one projection of a signature from pstate 1
// to pstate 8 with the SD530 model.
func BenchmarkModelPredict(b *testing.B) {
	pl := workload.SD530()
	m, err := TrainForCPU(pl.Machine, pl.Power)
	if err != nil {
		b.Fatal(err)
	}
	sig := metrics.Signature{IterTimeSec: 1, CPI: 0.8, TPI: 0.02, GBs: 40, DCPowerW: 330, VPI: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(sig, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
}
