package earconf

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goear/internal/policy"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().validate(); err != nil {
		t.Fatal(err)
	}
	if !Default().Authorized("anything") {
		t.Error("empty authorized list must allow everything")
	}
}

func TestParseFullFile(t *testing.T) {
	in := `
# site configuration
DefaultPolicy = min_energy
DefaultCPUPolicyTh = 0.03
DefaultUncPolicyTh=0.01

MinSignatureWindowSec=15
SignatureChangeTh=0.2
AuthorizedPolicies = monitoring, min_energy , min_energy_eufs
ClusterPowerBudgetW=5000
`
	c, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.DefaultPolicy != "min_energy" || c.DefaultCPUPolicyTh != 0.03 ||
		c.DefaultUncPolicyTh != 0.01 || c.MinSignatureWindowSec != 15 ||
		c.SignatureChangeTh != 0.2 || c.ClusterPowerBudgetW != 5000 {
		t.Errorf("parsed = %+v", c)
	}
	if len(c.AuthorizedPolicies) != 3 {
		t.Fatalf("authorized = %v", c.AuthorizedPolicies)
	}
	if !c.Authorized("min_energy_eufs") {
		t.Error("listed policy not authorized")
	}
	if c.Authorized("min_time") {
		t.Error("unlisted policy authorized")
	}
}

func TestParsePartialFileKeepsDefaults(t *testing.T) {
	c, err := Parse(strings.NewReader("DefaultCPUPolicyTh=0.04\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.DefaultPolicy != "min_energy_eufs" {
		t.Errorf("default policy lost: %q", c.DefaultPolicy)
	}
	if c.DefaultCPUPolicyTh != 0.04 {
		t.Errorf("override lost: %v", c.DefaultCPUPolicyTh)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"garbage line\n",
		"UnknownKey=1\n",
		"DefaultCPUPolicyTh=notanumber\n",
		"DefaultCPUPolicyTh=2\n",      // out of range
		"DefaultUncPolicyTh=-0.1\n",   // out of range
		"MinSignatureWindowSec=0.5\n", // below meter resolution
		"SignatureChangeTh=0\n",       // out of range
		"ClusterPowerBudgetW=-10\n",   // negative
		"DefaultPolicy=\n",            // empty
	}
	for i, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected error", i, strings.TrimSpace(in))
		}
	}
}

// TestEveryFieldIsAKey: every Config field is the ear.conf key that
// sets it, so a field of a kind set cannot parse fails here.
func TestEveryFieldIsAKey(t *testing.T) {
	def := reflect.ValueOf(Default())
	for i := 0; i < def.NumField(); i++ {
		key := def.Type().Field(i).Name
		want := def.Field(i).Interface()
		text := fmt.Sprint(want)
		if list, ok := want.([]string); ok {
			if len(list) == 0 {
				list = []string{"monitoring", "min_energy"}
				want = list
			}
			text = strings.Join(list, ",")
		}
		var c Config
		if err := c.set(key, text); err != nil {
			t.Errorf("%s=%s: %v", key, text, err)
			continue
		}
		if got := reflect.ValueOf(c).Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s=%s set %#v, want %#v", key, text, got, want)
		}
	}
}

// TestPolicyNamesRoundTrip: every policy name survives the split and
// trim of an AuthorizedPolicies list.
func TestPolicyNamesRoundTrip(t *testing.T) {
	names := policy.Names()
	c, err := Parse(strings.NewReader("AuthorizedPolicies=" + strings.Join(names, " , ") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !c.Authorized(name) {
			t.Errorf("policy %q does not round-trip: parsed %q", name, c.AuthorizedPolicies)
		}
	}
}

func TestValidateDirect(t *testing.T) {
	c := Default()
	c.SignatureChangeTh = 1.5
	if err := c.validate(); err == nil {
		t.Error("expected error for out-of-range signature threshold")
	}
}
