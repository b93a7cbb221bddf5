package model

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"goear/internal/metrics"
	"goear/internal/workload"
)

// coeffDigest is FNV-64a over math.Float64bits of every fitted
// LinCoeffs field (A…F), walked in Pairs order.
func coeffDigest(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m.Pairs {
		for _, pc := range row {
			for _, lc := range pc.ByClass {
				for _, v := range [...]float64{lc.A, lc.B, lc.C, lc.D, lc.E, lc.F} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}

// TestTrainedCoefficientsGolden pins every trained coefficient bit for
// bit on the three catalogue platforms, and the bytes of the JSON
// earctl learn writes (cmd/earctl's TestLearnWritesGoldenBytes holds the
// command to the same digests). The digests were computed with the generic
// slice-of-slices least squares (stats.LeastSquares at PR 15); a
// training change that moves one bit of one coefficient fails here
// before it can move results_full.txt.
func TestTrainedCoefficientsGolden(t *testing.T) {
	for _, tc := range []struct {
		pl          workload.Platform
		coeff, json uint64
	}{
		{workload.SD530(), 0xf28cbf00aa8208f4, 0x764d1e844ad284d9},
		{workload.CascadeLake(), 0x9c96d61747758034, 0x154ab86f397b4f65},
		{workload.GPUNode(), 0x26a52a01328daa9d, 0xa914b7ba868de00e},
	} {
		m, err := TrainForCPU(tc.pl.Machine, tc.pl.Power)
		if err != nil {
			t.Fatalf("%s: %v", tc.pl.Name, err)
		}
		if got := coeffDigest(m); got != tc.coeff {
			t.Errorf("%s: coefficient digest %#016x, want %#016x", tc.pl.Name, got, tc.coeff)
		}
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := h.Sum64(); got != tc.json {
			t.Errorf("%s: model JSON digest %#016x (%d bytes), want %#016x", tc.pl.Name, got, len(data), tc.json)
		}
	}
}

// TestTrainErrorText pins the wording of the two ways a (pair, class)
// fit can fail; both name the pair and the class.
func TestTrainErrorText(t *testing.T) {
	pl := workload.SD530()
	all := DefaultProbes(pl.Machine.CPU.TotalCores())

	// The first 12 probes sit in the lowest bandwidth class, so the
	// middle class has no samples.
	_, err := train(pl.Machine, pl.Power, all[:12])
	if want := "model: pair (0,0) class 1 has only 0 samples"; err == nil || err.Error() != want {
		t.Errorf("too-few-samples error = %v, want %q", err, want)
	}

	// One probe twelve times over: class 0 has enough samples, all on
	// one point, so its normal equations have rank one.
	same := make([]Probe, 12)
	for i := range same {
		same[i] = all[0]
	}
	_, err = train(pl.Machine, pl.Power, same)
	if want := "model: pair (0,0) class 0: model: CPI fit: singular system"; err == nil || err.Error() != want {
		t.Errorf("singular error = %v, want %q", err, want)
	}
	if !errors.Is(err, errSingular) {
		t.Errorf("singular error %v does not wrap errSingular", err)
	}
}

// TestTrainAllocations pins the learning phase's heap use: the model
// it returns, the probe list and the evaluation grid — 46 objects,
// nothing per sample, pair or class — and a prediction from the
// trained model, which allocates nothing.
func TestTrainAllocations(t *testing.T) {
	pl := workload.SD530()
	var m *Model
	// Ten runs, not three: under -race a collection inside the count
	// now and then adds a few allocations of the runtime's own.
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if m, err = TrainForCPU(pl.Machine, pl.Power); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 46 {
		t.Errorf("TrainForCPU(SD530) allocates %v objects, want 46", allocs)
	}
	sig := metrics.Signature{IterTimeSec: 1, CPI: 0.8, TPI: 0.02, GBs: 40, DCPowerW: 330, VPI: 0.2}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.Predict(sig, 1, 8); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Predict allocates %v times", n)
	}
}
