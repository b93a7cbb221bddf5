package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestCalibrationGolden pins every calibrated bit: every catalogue spec
// and the spec template, each calibrated on every platform, digested as
// FNV-64a over the float bits of each segment's solved Phase, Activity
// and InstrPerIter, its Iterations and the NominalOp (or the error text
// where a platform refuses the spec). A calibration change that moves
// one bit of one segment fails here before it can move
// results_full.txt.
func TestCalibrationGolden(t *testing.T) {
	tmpl, err := Template().Spec()
	if err != nil {
		t.Fatal(err)
	}
	specs := append(Catalog(), tmpl)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, mk := range platforms {
		for _, s := range specs {
			s.Platform = mk()
			c, err := s.Calibrate()
			if err != nil {
				// A spec whose power targets the platform cannot reach
				// is refused; the refusal is part of the digest.
				h.Write([]byte(err.Error()))
				continue
			}
			put(c.NominalOp.CoreRatio)
			put(c.NominalOp.UncoreRatio)
			for _, g := range c.Segs {
				for _, v := range [...]float64{g.Phase.BaseCPI, g.Phase.BytesPerInstr, g.Phase.VPI, g.Phase.Overlap, g.Activity, g.InstrPerIter} {
					put(math.Float64bits(v))
				}
				put(uint64(g.Phase.ActiveCores))
				put(uint64(g.Iterations))
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x34e573a421f44ce1); got != want {
		t.Errorf("calibration digest %#016x over %d specs on %d platforms, want %#016x", got, len(specs), len(platforms), want)
	}
}
