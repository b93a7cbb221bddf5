package model

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
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
// command to the same digests). A training change that moves one bit
// of one coefficient fails here before it can move results_full.txt.
// Training fans out over GOMAXPROCS, so the digests are checked at one,
// two and four.
func TestTrainedCoefficientsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			pl          workload.Platform
			coeff, json uint64
		}{
			{workload.SD530(), 0x189fb3f5f14a9f4c, 0x5ce4f55205fd2123},
			{workload.CascadeLake(), 0xca0fc65fe691fd42, 0xa90d5786c0728b18},
			{workload.GPUNode(), 0xfc1d05d13b9bf4cd, 0x02d5eb02d16e0246},
		} {
			m, err := TrainForCPU(tc.pl.Machine, tc.pl.Power)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.pl.Name, procs, err)
			}
			if got := coeffDigest(m); got != tc.coeff {
				t.Errorf("%s at GOMAXPROCS %d: coefficient digest %#016x, want %#016x", tc.pl.Name, procs, got, tc.coeff)
			}
			data, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			if got := h.Sum64(); got != tc.json {
				t.Errorf("%s at GOMAXPROCS %d: model JSON digest %#016x (%d bytes), want %#016x",
					tc.pl.Name, procs, got, len(data), tc.json)
			}
		}
	}
}

// TestTrainErrorText pins the wording of the two ways a (pair, class)
// fit can fail, both naming the pair and the class, and of a probe the
// evaluation refuses, naming the probe and the pstate. It runs at
// GOMAXPROCS 4, where every pstate row fails at once, so the text is
// also the one a sequential run reports first.
func TestTrainErrorText(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
	if want := "model: pair (0,0) class 0: CPI fit: singular system"; err == nil || err.Error() != want {
		t.Errorf("singular error = %v, want %q", err, want)
	}
	if !errors.Is(err, errSingular) {
		t.Errorf("singular error %v does not wrap errSingular", err)
	}

	// A phase the evaluation refuses is named by its first probe: probe
	// 5 shares no phase with probe 4 once its overlap is broken.
	bad := slices.Clone(all[:12])
	bad[5].Phase.Overlap = 1
	_, err = train(pl.Machine, pl.Power, bad)
	if want := "model: probe 5 at pstate 0: perf: overlap 1 outside [0,1)"; err == nil || err.Error() != want {
		t.Errorf("evaluation error = %v, want %q", err, want)
	}
}

// TestTrainAllocations pins the learning phase's heap use: the model
// it returns with its frequency table and row index, the probe list
// (made at its length), the distinct phases, the result, sample,
// fit-mask and coefficient grids (one slice each, not one per pstate
// row) and the two row closures handed to par.ForEach with the machine
// they share — 12 objects, nothing per sample, pair or class — and a
// prediction from the trained model, which allocates nothing.
// AllocsPerRun sets GOMAXPROCS to 1, so the rows run inline and start
// no goroutine.
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
	if allocs != 12 {
		t.Errorf("TrainForCPU(SD530) allocates %v objects, want 12", allocs)
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
