// Package units defines the frequency type the CPU and uncore models
// trade in, and the percentage helper the comparisons print.
//
// A Freq is a struct around hertz, so the compiler holds its dimension:
// a bare number does not convert to one, and Freq·Freq or Freq + 1 do
// not compile. Arithmetic goes through GHzF and back through GHz, which
// keeps every product the same float64 operation.
package units

import (
	"math"
	"strconv"
	"strings"
)

// Freq is a frequency, stored in hertz.
type Freq struct{ hz float64 }

// GHz builds a frequency from gigahertz.
func GHz(g float64) Freq { return Freq{g * 1e9} }

// FromRatio builds a frequency from a hardware ratio and granularity.
func FromRatio(ratio uint64, gran Freq) Freq { return Freq{float64(ratio) * gran.hz} }

// GHzF returns f expressed in gigahertz.
func (f Freq) GHzF() float64 { return f.hz / 1e9 }

// Ratio returns the hardware ratio for f given a bus-clock granularity,
// rounding to the nearest multiple. Intel uncore and core ratios use a
// 100 MHz granularity.
func (f Freq) Ratio(gran Freq) uint64 {
	if gran.hz <= 0 {
		return 0
	}
	return uint64(math.Round(f.hz / gran.hz))
}

// String formats the frequency with an adaptive unit.
func (f Freq) String() string {
	switch {
	case f.hz >= 1e9:
		return trimZeros(strconv.FormatFloat(f.GHzF(), 'f', 2, 64)) + "GHz"
	case f.hz >= 1e6:
		return trimZeros(strconv.FormatFloat(f.hz/1e6, 'f', 1, 64)) + "MHz"
	case f.hz >= 1e3:
		return trimZeros(strconv.FormatFloat(f.hz/1e3, 'f', 1, 64)) + "kHz"
	default:
		return trimZeros(strconv.FormatFloat(f.hz, 'f', 1, 64)) + "Hz"
	}
}

// PercentChange returns 100*(now-ref)/ref, or 0 when ref is 0.
func PercentChange(ref, now float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (now - ref) / ref
}

// trimZeros removes trailing zeros (and a trailing dot) from a fixed-point
// formatted number so that "2.40" prints as "2.4" and "300.00" as "300".
func trimZeros(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
