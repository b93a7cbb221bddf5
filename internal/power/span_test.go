package power

import (
	"math"
	"testing"

	"goear/internal/msr"
)

// span kinds, the fuzz input's first byte modulo spanKinds.
const (
	spanRapl = iota // Rapl.Span: carries, counters, 32-bit wrap
	spanInm         // NodeManager.Span: the publications
	spanKinds
)

// raplAt builds a Rapl over two MSR files whose energy unit is 2^-esu J,
// every carry at carry, socket 0's counters at cnt's low 32 bits and
// socket 1's package counter at its high 32.
func raplAt(t *testing.T, esu uint64, carry float64, cnt uint64) *Rapl {
	t.Helper()
	files := []*msr.File{new(msr.File), new(msr.File)}
	for i, f := range files {
		f.Init(12, 24)
		pkg, dram := cnt&0xFFFFFFFF, cnt&0xFFFFFFFF
		if i == 1 {
			pkg, dram = cnt>>32, 0
		}
		for _, err := range []error{
			f.WriteHw(msr.MSRRaplPowerUnit, esu<<8),
			f.WriteHw(msr.MSRPkgEnergyStatus, pkg),
			f.WriteHw(msr.MSRDramEnergyStatus, dram),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	r := new(Rapl)
	if err := r.Init(files); err != nil {
		t.Fatal(err)
	}
	r.carryPkg[0], r.carryPkg[1], r.carryDram = carry, carry, carry
	return r
}

// FuzzSpanMatchesAdvance: each meter's Span equals as many Advance calls
// field for field, bit for bit — a Rapl over two real MSR files (both
// package carries and counters, the DRAM carry and counter, the 32-bit
// wrap) and the Node Manager (energy integral, published value, last
// publication, clock). The seeds force the edges the closed forms argue
// about: negative and off-grid carries, joules under a microjoule or
// straddling 1, counters about to wrap, a publication inside the span,
// ticks longer than the publication second; and spans of one, two and
// 31 ticks, which take the same closed forms as long ones.
func FuzzSpanMatchesAdvance(f *testing.F) {
	type seed struct {
		kind    uint8
		s, c, x float64
		k       uint16
		cnt     uint64
		why     string
	}
	for _, sd := range []seed{
		{spanRapl, 0.61234567891, 3e-7, 14, 5000, 12345, "settled carry"},
		{spanRapl, 0.61234567891, -1e-17, 14, 5000, 12345, "negative carry"},
		{spanRapl, 0.61234567891, 1.2345678901234e-20, 14, 5000, 12345, "carry off the grid"},
		{spanRapl, 1.5e-7, 0, 16, 3000, 1, "under a microjoule a tick"},
		{spanRapl, 2.75, 5e-7, 14, 9000, 0xFFFFF000, "count wraps at 32 bits"},
		{spanRapl, 0.5, 0, 14, 500, 7, "whole microjoules, no carry"},
		{spanRapl, 0.9999995, 2e-7, 14, 500, 7, "j straddles 1"},
		{spanInm, 3.2, 0.01, 0, 1000, 120, "publishes every 100 ticks"},
		{spanInm, 1234.995, 0.00999999999999998, 5e5, 50, 300, "one publication in the span"},
		{spanInm, 0, 0.01, 0, 300, 77, "from time zero"},
		{spanInm, 10, 2.5, 0, 200, 100, "a tick longer than two seconds"},
		{spanRapl, 0.61234567891, 9.7890999994909578e-07, 14, 1, 12345, "carry on its cycle, one tick"},
		{spanRapl, 0.61234567891, 9.7890999994909578e-07, 14, 2, 12345, "carry on its cycle, two ticks"},
		{spanRapl, 0.61234567891, 9.7890999994909578e-07, 14, 31, 12345, "carry on its cycle, 31 ticks"},
		{spanRapl, 2.75, 5.0000000006988898e-07, 14, 1, 0xFFFFF000, "count wraps in a one-tick span"},
		{spanRapl, 2.75, 5.0000000006988898e-07, 14, 2, 0xFFFF4000, "count wraps on the second of two ticks"},
		{spanRapl, 2.75, 5.0000000006988898e-07, 14, 31, 0xFFF00000, "count wraps inside 31 ticks"},
		{spanInm, 1234.995, 0.00999999999999998, 5e5, 2, 300, "a publication on the first of two ticks"},
		{spanInm, 1234.985, 0.00999999999999998, 5e5, 2, 300, "a publication on the second of two ticks"},
		{spanInm, 0, 0.01, 0, 1, 77, "from time zero, one tick"},
		{spanInm, 3.9, 0.01, 0, 31, 120, "a publication inside 31 ticks"},
	} {
		f.Add(sd.kind, sd.s, sd.c, sd.x, sd.k, sd.cnt)
	}
	f.Fuzz(func(t *testing.T, kind uint8, s, c, x float64, k16 uint16, cnt uint64) {
		for _, v := range []float64{s, c, x} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		k := uint64(k16)
		same := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Span %v (%#x), Advance %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		switch kind % spanKinds {
		case spanRapl:
			// s is each socket's package joules a tick (the DRAM
			// counter's too), c every carry, x the energy unit's
			// exponent.
			p := math.Abs(s)
			if p > 1e6 || math.Abs(c) > 1 {
				return
			}
			esu := uint64(math.Mod(math.Abs(x), 32))
			b := Breakdown{Pkg: 2 * p, Dram: p}
			got, want := raplAt(t, esu, c, cnt), raplAt(t, esu, c, cnt)
			if err := got.Span(b, 1, k); err != nil {
				t.Fatal(err)
			}
			for range k {
				if err := want.Advance(b, 1); err != nil {
					t.Fatal(err)
				}
			}
			for i := range got.carryPkg {
				same("package carry", got.carryPkg[i], want.carryPkg[i])
			}
			same("DRAM carry", got.carryDram, want.carryDram)
			for i, f := range got.sockets {
				for _, reg := range []uint32{msr.MSRPkgEnergyStatus, msr.MSRDramEnergyStatus} {
					g, err := f.Read(reg)
					if err != nil {
						t.Fatal(err)
					}
					w, err := want.sockets[i].Read(reg)
					if err != nil {
						t.Fatal(err)
					}
					if g != w {
						t.Fatalf("socket %d register %#x: Span %#x, Advance %#x", i, reg, g, w)
					}
				}
			}
		case spanInm:
			// s is the clock, c the tick's seconds, x the energy
			// integral, cnt the power; the last publication is the
			// clock's whole second, as after any tick.
			now, dt := math.Abs(s), math.Abs(c)
			if now > 1e9 || dt > 10 {
				return
			}
			powerW := float64(cnt%100000) / 7
			got := &NodeManager{trueJ: x, published: -1, lastPub: float64(int64(now)), now: now}
			want := &NodeManager{trueJ: x, published: -1, lastPub: float64(int64(now)), now: now}
			if err := got.Span(powerW, dt, k); err != nil {
				t.Fatal(err)
			}
			for range k {
				if err := want.Advance(powerW, dt); err != nil {
					t.Fatal(err)
				}
			}
			same("energy", got.trueJ, want.trueJ)
			same("published", got.published, want.published)
			same("last publication", got.lastPub, want.lastPub)
			same("clock", got.now, want.now)
		}
	})
}
