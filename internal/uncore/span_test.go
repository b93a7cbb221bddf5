package uncore

import (
	"math"
	"testing"

	"goear/internal/msr"
)

// FuzzSpanMatchesAdvance: Controller.Span equals as many Advance calls
// bit for bit — the tick accumulator and the published ratio. The
// controller's curve asks for ratio 18 and it starts at 12 + start%13,
// so a start of 6 is settled (the seeds' case: only the accumulator
// moves, in closed form whatever the span's length) and any other
// ramps. The seeds force the drain window's edges: dt == 0.01, an
// off-grid accumulator, dt just above and below 0.01, a dt drifting out
// below the threshold, and one outside the window's binade; each over
// long spans and over spans of one, two and 31 ticks.
func FuzzSpanMatchesAdvance(f *testing.F) {
	type seed struct {
		acc, dt float64
		k       uint16
		start   uint8
		why     string
	}
	for _, sd := range []seed{
		{0.003, 0.01, 500, 6, "dt == 0.01"},
		{1e-20, 0.01, 500, 6, "off-grid accumulator, dt == 0.01"},
		{2e-12, 0.01 + 5e-15, 3000, 6, "dt above 0.01"},
		{2e-12, 0.01 - 5e-15, 3000, 6, "dt below 0.01"},
		{0, 0.0099999995, 3000, 6, "drifting out below the threshold"},
		{0.004, 0.0051, 300, 6, "dt outside the binade"},
		{0.003, 0.01, 1, 6, "dt == 0.01, one tick"},
		{0.003, 0.01, 2, 6, "dt == 0.01, two ticks"},
		{1e-20, 0.01, 31, 6, "off-grid accumulator, dt == 0.01, 31 ticks"},
		{2e-12, 0.01 + 5e-15, 1, 6, "dt above 0.01, one tick"},
		{2e-12, 0.01 - 5e-15, 2, 6, "dt below 0.01, two ticks"},
		{0, 0.0099999995, 31, 6, "dt just below the threshold, 31 ticks"},
		{0.002, 0.01, 40, 0, "ramping from the minimum"},
	} {
		f.Add(sd.acc, sd.dt, sd.k, sd.start)
	}
	f.Fuzz(func(t *testing.T, acc, dt float64, k16 uint16, start uint8) {
		// Beyond these Advance drains for ever.
		if math.IsNaN(acc) || math.IsNaN(dt) || math.Abs(acc) > 1 || dt < 0 || dt > 0.1 {
			return
		}
		var ctl [2]Controller
		for i := range ctl {
			s := newSocket(t)
			if err := s.MSR.WriteHw(msr.MSRUncorePerfStatus, msr.EncodeUncorePerfStatus(12+uint64(start%13))); err != nil {
				t.Fatal(err)
			}
			if err := ctl[i].Init(s.MSR, Fixed(18)); err != nil {
				t.Fatal(err)
			}
			ctl[i].acc = acc
		}
		got, want := &ctl[0], &ctl[1]
		k := uint64(k16)
		if err := got.Span(dt, 18, k); err != nil {
			t.Fatal(err)
		}
		for range k {
			if err := want.Advance(dt, 18); err != nil {
				t.Fatal(err)
			}
		}
		if g, w := math.Float64bits(got.acc), math.Float64bits(want.acc); g != w {
			t.Fatalf("accumulator: Span %v (%#x), Advance %v (%#x)", got.acc, g, want.acc, w)
		}
		g, err := got.msrs.Read(msr.MSRUncorePerfStatus)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.msrs.Read(msr.MSRUncorePerfStatus)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("published ratio: Span %#x, Advance %#x", g, w)
		}
	})
}
