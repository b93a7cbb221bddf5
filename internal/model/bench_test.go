package model

import (
	"testing"

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
