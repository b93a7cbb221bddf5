package units

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"goear/internal/analysis"
)

// busClock is the 100 MHz ratio granularity of the modelled parts.
var busClock = GHz(0.1)

func TestFreqConversions(t *testing.T) {
	if got := GHz(2.4).GHzF(); got != 2.4 {
		t.Errorf("GHzF = %v, want 2.4", got)
	}
}

func TestFreqRatio(t *testing.T) {
	cases := []struct {
		f    Freq
		gran Freq
		want uint64
	}{
		{GHz(2.4), busClock, 24},
		{GHz(1.2), busClock, 12},
		{GHz(2.35), busClock, 24}, // rounds to nearest
		{GHz(2.449), busClock, 24},
		{Freq{}, busClock, 0},
		{GHz(2.4), Freq{}, 0}, // degenerate granularity
	}
	for _, c := range cases {
		if got := c.f.Ratio(c.gran); got != c.want {
			t.Errorf("Ratio(%v, %v) = %d, want %d", c.f, c.gran, got, c.want)
		}
	}
}

func TestFromRatioRoundTrip(t *testing.T) {
	// Any ratio in the plausible uncore range must round-trip exactly
	// through FromRatio/Ratio at 100 MHz granularity.
	f := func(r uint8) bool {
		ratio := uint64(r%64) + 1
		return FromRatio(ratio, busClock).Ratio(busClock) == ratio
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqString(t *testing.T) {
	cases := []struct {
		f    Freq
		want string
	}{
		{GHz(2.4), "2.4GHz"},
		{GHz(2.39), "2.39GHz"},
		{busClock, "100MHz"},
		{Freq{1500}, "1.5kHz"},
		{Freq{10}, "10Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", c.f.hz, got, c.want)
		}
	}
}

// TestFreqIsNotAFloat pins what the type holds: a bare number does not
// convert to a Freq, and a Freq does not multiply by a Freq or add a
// number. Each body is type-checked against this package as another
// package would import it; the valid one must pass and the others fail.
func TestFreqIsNotAFloat(t *testing.T) {
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		"_ = units.GHz(2.4).Ratio(units.FromRatio(1, f))", // the one that compiles
		"_ = units.Freq(2.4e9)",
		"_ = f * f",
		"_ = f + 1",
	} {
		dir := t.TempDir()
		src := "package p\n\nimport \"goear/internal/units\"\n\nfunc use(f units.Freq) {\n\t" + body + "\n}\n"
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		err := loader.Check(fmt.Sprintf("freqcheck/p%d", i), dir)
		switch {
		case i == 0 && err != nil:
			t.Errorf("%s: %v", body, err)
		case i > 0 && err == nil:
			t.Errorf("%s type-checks; Freq must not behave as a float", body)
		case err != nil && !strings.Contains(err.Error(), "type-check"):
			t.Errorf("%s: failed for another reason: %v", body, err)
		}
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(100, 110); got != 10 {
		t.Errorf("PercentChange(100,110) = %v, want 10", got)
	}
	if got := PercentChange(100, 90); got != -10 {
		t.Errorf("PercentChange(100,90) = %v, want -10", got)
	}
	if got := PercentChange(0, 90); got != 0 {
		t.Errorf("PercentChange(0,90) = %v, want 0", got)
	}
}
