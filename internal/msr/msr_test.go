package msr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewFileDefaults(t *testing.T) {
	var f File
	f.Init(12, 24)
	v, err := f.Read(MSRUncoreRatioLimit)
	if err != nil {
		t.Fatal(err)
	}
	u := DecodeUncoreRatioLimit(v)
	if u.MinRatio != 12 || u.MaxRatio != 24 {
		t.Errorf("uncore limits = %+v, want min 12 max 24", u)
	}
	unit, err := f.Read(MSRRaplPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if esu := (unit >> 8) & 0x1F; esu != defaultEnergyStatusUnit {
		t.Errorf("ESU = %d, want %d", esu, defaultEnergyStatusUnit)
	}
	epb, err := f.Read(IA32EnergyPerfBias)
	if err != nil {
		t.Fatal(err)
	}
	if epb != 6 {
		t.Errorf("EPB default = %d, want 6", epb)
	}
}

func TestUnknownRegister(t *testing.T) {
	var f File
	f.Init(12, 24)
	if _, err := f.Read(0xDEAD); err == nil {
		t.Error("expected error reading unknown register")
	} else {
		var u errUnknownRegister
		if !errors.As(err, &u) || u.Addr != 0xDEAD {
			t.Errorf("wrong error: %v", err)
		}
	}
	if err := f.Write(0xDEAD, 1); err == nil {
		t.Error("expected error writing unknown register")
	}
	if err := f.WriteHw(0xDEAD, 1); err == nil {
		t.Error("expected error hw-writing unknown register")
	}
	if _, err := f.AddEnergyHw(0xDEAD, 1); err == nil {
		t.Error("expected error adding energy to unknown register")
	}
}

func TestSoftwareWritability(t *testing.T) {
	var f File
	f.Init(12, 24)
	// Counters must be read-only to software.
	for _, addr := range []uint32{
		IA32MPerf, IA32APerf, ia32FixedCtr0, ia32FixedCtr1, ia32FixedCtr2,
		MSRPkgEnergyStatus, MSRDramEnergyStatus, MSRUncorePerfStatus,
		IA32PerfStatus, MSRRaplPowerUnit,
	} {
		if err := f.Write(addr, 42); err == nil {
			t.Errorf("register 0x%X writable by software, want read-only", addr)
		} else {
			var ro errReadOnly
			if !errors.As(err, &ro) {
				t.Errorf("0x%X: wrong error type %v", addr, err)
			}
		}
	}
	// Control registers must be writable.
	for _, addr := range []uint32{IA32PerfCtl, IA32EnergyPerfBias, MSRUncoreRatioLimit} {
		if err := f.Write(addr, 1); err != nil {
			t.Errorf("register 0x%X: unexpected write error %v", addr, err)
		}
	}
	// Hardware can write anything implemented.
	if err := f.WriteHw(ia32FixedCtr0, 99); err != nil {
		t.Errorf("WriteHw: %v", err)
	}
	if v, _ := f.Read(ia32FixedCtr0); v != 99 {
		t.Errorf("counter = %d, want 99", v)
	}
}

func TestUncoreRatioLimitRoundTrip(t *testing.T) {
	fn := func(maxR, minR uint8) bool {
		u := UncoreRatioLimit{MaxRatio: uint64(maxR) & 0x7F, MinRatio: uint64(minR) & 0x7F}
		return DecodeUncoreRatioLimit(EncodeUncoreRatioLimit(u)) == u
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestUncoreRatioLimitLayout(t *testing.T) {
	// SDM layout: bits 6:0 max, bits 14:8 min. 2.4 GHz max / 1.2 GHz min
	// encodes as 0x0C18.
	v := EncodeUncoreRatioLimit(UncoreRatioLimit{MaxRatio: 24, MinRatio: 12})
	if v != 0x0C18 {
		t.Errorf("encoded = 0x%X, want 0x0C18", v)
	}
	u := DecodeUncoreRatioLimit(0x0C18)
	if u.MaxRatio != 24 || u.MinRatio != 12 {
		t.Errorf("decoded = %+v", u)
	}
	// Masking: out-of-field bits ignored.
	u = DecodeUncoreRatioLimit(0xFFFF_FFFF_FFFF_0C18)
	if u.MaxRatio != 0x18 || u.MinRatio != 0x0C {
		t.Errorf("masked decode = %+v", u)
	}
}

func TestPerfCtlRoundTrip(t *testing.T) {
	fn := func(r uint8) bool {
		return DecodePerfCtl(EncodePerfCtl(uint64(r))) == uint64(r)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
	if EncodePerfCtl(24) != 24<<8 {
		t.Errorf("PerfCtl layout wrong: 0x%X", EncodePerfCtl(24))
	}
}

func TestUncorePerfStatusRoundTrip(t *testing.T) {
	fn := func(r uint8) bool {
		ratio := uint64(r) & 0x7F
		return DecodeUncorePerfStatus(EncodeUncorePerfStatus(ratio)) == ratio
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
	// SDM layout: the current ratio sits in bits 6:0; 2.4 GHz reads 0x18.
	if v := EncodeUncorePerfStatus(0x18); v != 0x18 {
		t.Errorf("encoded = 0x%X, want 0x18", v)
	}
	if r := DecodeUncorePerfStatus(^uint64(0x7F) | 0x18); r != 0x18 {
		t.Errorf("masked decode = 0x%X, want 0x18", r)
	}
}

func TestEnergyAccumulationAndUnits(t *testing.T) {
	var f File
	f.Init(12, 24)
	// 1 J at ESU 14 is 16384 counts.
	v, err := f.AddEnergyHw(MSRPkgEnergyStatus, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1<<defaultEnergyStatusUnit {
		t.Errorf("counter = %d, want %d", v, 1<<defaultEnergyStatusUnit)
	}
	if j := f.EnergyJoules(v); math.Abs(j-1.0) > 1e-9 {
		t.Errorf("EnergyJoules = %v, want 1", j)
	}
}

func TestEnergyCounterWraps32(t *testing.T) {
	var f File
	f.Init(12, 24)
	if err := f.WriteHw(MSRPkgEnergyStatus, 0xFFFF_FFFF); err != nil {
		t.Fatal(err)
	}
	prev, _ := f.Read(MSRPkgEnergyStatus)
	v, err := f.AddEnergyHw(MSRPkgEnergyStatus, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0xFFFF_FFFF {
		t.Errorf("counter exceeded 32 bits: %d", v)
	}
	// The reader-side wraparound delta must still see ~1 J.
	d := EnergyDelta(prev, v)
	if j := f.EnergyJoules(d); math.Abs(j-1.0) > 1e-3 {
		t.Errorf("wrapped delta = %v J, want ~1", j)
	}
}

func TestEnergyDeltaProperty(t *testing.T) {
	// For any starting counter and any delta < 2^32, reconstructing the
	// delta across the wrap must be exact.
	fn := func(start uint32, d uint32) bool {
		cur := (uint64(start) + uint64(d)) & 0xFFFF_FFFF
		return EnergyDelta(uint64(start), cur) == uint64(d)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// Hardware adds while software reads: must be race-free (run with
	// -race) and conserve the total.
	var f File
	f.Init(12, 24)
	done := make(chan struct{})
	// One count each: 2^-14 J at the default energy unit.
	const count = 1.0 / (1 << defaultEnergyStatusUnit)
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if _, err := f.AddEnergyHw(MSRPkgEnergyStatus, count); err != nil {
				t.Errorf("AddEnergyHw: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := f.Read(MSRPkgEnergyStatus); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	<-done
	v, _ := f.Read(MSRPkgEnergyStatus)
	if v != 1000 {
		t.Errorf("counter = %d, want 1000", v)
	}
}
