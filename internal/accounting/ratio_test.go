package accounting

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"
)

// attributeCase is one window of the attribution battery.
type attributeCase struct {
	w       Window
	total   Energy
	tenants []Tenant
}

// attributeBattery is a seeded battery of windows for the attribution
// golden: every tenant count from one to three against every pattern
// of all-zero usage columns (each pick fallback, down to the all-zero
// equal split), with zero and negative entries inside the live columns,
// plus a window whose split rounds the running sum past its total so
// the last share clamps at zero.
func attributeBattery() []attributeCase {
	rng := rand.New(rand.NewPCG(11, 54))
	draw := func(live bool) float64 {
		switch {
		case !live:
			return 0
		case rng.IntN(5) == 0:
			return 0
		case rng.IntN(9) == 0:
			return -rng.Float64() * 1e11
		}
		return (0.01 + rng.Float64()) * 1e12
	}
	var out []attributeCase
	phase := 0
	for n := 1; n <= 3; n++ {
		for zero := 0; zero < 8; zero++ { // bit k set: usage column k all zero
			for rep := 0; rep < 10; rep++ {
				tenants := make([]Tenant, n)
				for t := range tenants {
					tenants[t] = Tenant{
						Meta: Meta{JobID: "job", StepID: "0", User: "u", Policy: "min_energy"},
						Usage: Usage{
							Instr:     draw(zero&1 == 0),
							Cycles:    draw(zero&2 == 0),
							DRAMBytes: draw(zero&4 == 0),
						},
					}
				}
				out = append(out, attributeCase{
					w: Window{Node: "n", Phase: phase, StartSec: 120 * float64(phase), EndSec: 120 * float64(phase+1)},
					total: Energy{
						PkgJ:    rng.Float64() * 3e4,
						DramJ:   rng.Float64() * 4e3,
						UncoreJ: rng.Float64() * 2.5e3,
						NodeJ:   rng.Float64() * 4e4,
					},
					tenants: tenants,
				})
				phase++
			}
		}
	}
	// 3.33 J split by instructions 0.1 : 0.7 : 1e-300 gives the first two
	// tenants 4.4e-16 J more than the window holds.
	clamp := make([]Tenant, 3)
	for t, x := range []float64{0.1, 0.7, 1e-300} {
		clamp[t] = Tenant{Meta: Meta{JobID: "job", StepID: "0", User: "u"}, Usage: Usage{Instr: x}}
	}
	out = append(out, attributeCase{w: Window{Node: "n", Phase: phase, EndSec: 1}, total: Energy{NodeJ: 3.33}, tenants: clamp})
	return out
}

// TestAttributeGolden pins Attribute's arithmetic bit for bit: an
// FNV-64a over the IEEE bits of every share the battery produces. A
// change to how a split is computed — the order of its operations, a
// fallback column, the clamp — moves the digest.
func TestAttributeGolden(t *testing.T) {
	const want = uint64(0xb31220437ea57297)
	h := fnv.New64a()
	var b [8]byte
	clamped := false
	for _, c := range attributeBattery() {
		recs, err := Attribute(nil, c.w, c.total, c.tenants)
		if err != nil {
			t.Fatalf("phase %d: %v", c.w.Phase, err)
		}
		if len(recs) != len(c.tenants) {
			t.Fatalf("phase %d: %d records for %d tenants", c.w.Phase, len(recs), len(c.tenants))
		}
		for _, r := range recs {
			for _, x := range []float64{r.PkgJ, r.DramJ, r.UncoreJ, r.NodeJ} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		if c.total.NodeJ == 3.33 && recs[2].NodeJ == 0 {
			clamped = true
		}
	}
	if !clamped {
		t.Error("the clamp window's last share is not clamped to zero")
	}
	if got := h.Sum64(); got != want {
		t.Errorf("attribution digest %#016x, want %#016x", got, want)
	}
}

// TestAttributeAllocations: Attribute splits every domain straight into
// the records it appends, so a destination with room costs nothing.
func TestAttributeAllocations(t *testing.T) {
	dst := make([]Record, 0, 3)
	for _, c := range attributeBattery() {
		if n := testing.AllocsPerRun(10, func() {
			var err error
			if dst, err = Attribute(dst[:0], c.w, c.total, c.tenants); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("phase %d, %d tenants, into a slice with room: %v allocations, want 0", c.w.Phase, len(c.tenants), n)
		}
	}
}
