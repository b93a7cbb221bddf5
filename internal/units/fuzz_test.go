package units

import "testing"

// The shared contract for both parsers: never panic, never accept a
// negative or non-finite value, and formatting normalizes — once a
// value has been through one parse→format round, further rounds are a
// fixed point. (The very first format may shift the adaptive unit at a
// decade boundary: 999.96 Hz prints as "1000Hz", which reparses to
// "1kHz". After that the string is stable.)

// FuzzParseFrequency feeds arbitrary strings through ParseFreq.
func FuzzParseFrequency(f *testing.F) {
	for _, s := range []string{
		"2.4GHz", "2400MHz", "2400000 kHz", "2400000000", "0",
		"  1.8 ghz ", "100Hz", "2.6E9", "-1GHz", "NaNGHz", "+InfMHz",
		"KHz",      // Kelvin sign: ToLower would change the byte length
		"9e999",    // overflows to +Inf in ParseFloat
		"1e300GHz", // finite number, overflows after the unit multiply
		"999.96",   // rounds across the Hz/kHz decade boundary
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseFreq(s)
		if err != nil {
			return
		}
		if v < 0 {
			t.Fatalf("ParseFreq(%q) accepted negative value %v", s, v)
		}
		s1 := v.String()
		v2, err := ParseFreq(s1)
		if err != nil {
			t.Fatalf("ParseFreq(%q) = %v, but reparse of %q failed: %v", s, v, s1, err)
		}
		s2 := v2.String()
		v3, err := ParseFreq(s2)
		if err != nil {
			t.Fatalf("reparse of normalized %q failed: %v", s2, err)
		}
		if s3 := v3.String(); s3 != s2 {
			t.Fatalf("format/parse not a fixed point: %q -> %q -> %q -> %q", s, s1, s2, s3)
		}
	})
}

// FuzzParsePower is the same contract for ParsePower.
func FuzzParsePower(f *testing.F) {
	for _, s := range []string{
		"300W", "1.5kW", "42500", "0", " 245 w ", "2MW", "-5W",
		"NaNW", "InfkW", "KW", "9e999", "1e307kW",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParsePower(s)
		if err != nil {
			return
		}
		if v < 0 {
			t.Fatalf("ParsePower(%q) accepted negative value %v", s, v)
		}
		s1 := v.String()
		v2, err := ParsePower(s1)
		if err != nil {
			t.Fatalf("ParsePower(%q) = %v, but reparse of %q failed: %v", s, v, s1, err)
		}
		s2 := v2.String()
		v3, err := ParsePower(s2)
		if err != nil {
			t.Fatalf("reparse of normalized %q failed: %v", s2, err)
		}
		if s3 := v3.String(); s3 != s2 {
			t.Fatalf("format/parse not a fixed point: %q -> %q -> %q -> %q", s, s1, s2, s3)
		}
	})
}
