// Package earconf parses the cluster configuration file that drives
// EAR's defaults, in the spirit of ear.conf: the sysadmin sets the
// default policy and its thresholds, the signature cadence, the
// authorised policy list, and the global manager's power budget; users
// may then only tighten, not loosen, what the file allows.
//
// The format is the INI-like key=value layout ear.conf uses:
//
//	# comments and blank lines are ignored
//	DefaultPolicy=min_energy_eufs
//	DefaultCPUPolicyTh=0.05
//	DefaultUncPolicyTh=0.02
//	MinSignatureWindowSec=10
//	SignatureChangeTh=0.15
//	AuthorizedPolicies=monitoring,min_energy,min_energy_eufs
//	ClusterPowerBudgetW=0
package earconf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Config is the parsed cluster configuration.
type Config struct {
	// DefaultPolicy is applied when a job does not request one.
	DefaultPolicy string `conf:"DefaultPolicy"`
	// DefaultCPUPolicyTh and DefaultUncPolicyTh are the site's policy
	// thresholds.
	DefaultCPUPolicyTh float64 `conf:"DefaultCPUPolicyTh"`
	DefaultUncPolicyTh float64 `conf:"DefaultUncPolicyTh"`
	// MinSignatureWindowSec is EARL's signature cadence floor.
	MinSignatureWindowSec float64 `conf:"MinSignatureWindowSec"`
	// SignatureChangeTh re-applies policies on behaviour changes.
	SignatureChangeTh float64 `conf:"SignatureChangeTh"`
	// AuthorizedPolicies restricts which policies jobs may request;
	// empty means all registered policies.
	AuthorizedPolicies []string `conf:"AuthorizedPolicies"`
	// ClusterPowerBudgetW enables the global manager when positive.
	ClusterPowerBudgetW float64 `conf:"ClusterPowerBudgetW"`
}

// Default returns the site defaults used when no file is present —
// the configuration the paper evaluates with.
func Default() Config {
	return Config{
		DefaultPolicy:         "min_energy_eufs",
		DefaultCPUPolicyTh:    0.05,
		DefaultUncPolicyTh:    0.02,
		MinSignatureWindowSec: 10,
		SignatureChangeTh:     0.15,
	}
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	switch {
	case c.DefaultPolicy == "":
		return fmt.Errorf("earconf: DefaultPolicy is required")
	case c.DefaultCPUPolicyTh < 0 || c.DefaultCPUPolicyTh > 1:
		return fmt.Errorf("earconf: DefaultCPUPolicyTh %g outside [0,1]", c.DefaultCPUPolicyTh)
	case c.DefaultUncPolicyTh < 0 || c.DefaultUncPolicyTh > 1:
		return fmt.Errorf("earconf: DefaultUncPolicyTh %g outside [0,1]", c.DefaultUncPolicyTh)
	case c.MinSignatureWindowSec < 1:
		return fmt.Errorf("earconf: MinSignatureWindowSec must be >= 1 (the DC meter updates once per second)")
	case c.SignatureChangeTh <= 0 || c.SignatureChangeTh > 1:
		return fmt.Errorf("earconf: SignatureChangeTh %g outside (0,1]", c.SignatureChangeTh)
	case c.ClusterPowerBudgetW < 0:
		return fmt.Errorf("earconf: ClusterPowerBudgetW must be non-negative")
	}
	return nil
}

// Authorized reports whether the site allows the given policy.
func (c Config) Authorized(policy string) bool {
	if len(c.AuthorizedPolicies) == 0 {
		return true
	}
	for _, p := range c.AuthorizedPolicies {
		if p == policy {
			return true
		}
	}
	return false
}

// Parse reads a configuration, starting from Default and overriding
// with the file's keys. Unknown keys are rejected (they are typos until
// proven otherwise).
func Parse(r io.Reader) (Config, error) {
	c := Default()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		key, val, ok := strings.Cut(raw, "=")
		if !ok {
			return Config{}, fmt.Errorf("earconf: line %d: expected key=value, got %q", line, raw)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if err := c.set(key, val); err != nil {
			return Config{}, fmt.Errorf("earconf: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Config{}, fmt.Errorf("earconf: read: %w", err)
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// set applies one key.
func (c *Config) set(key, val string) error {
	parseF := func() (float64, error) {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	switch key {
	case "DefaultPolicy":
		c.DefaultPolicy = val
	case "DefaultCPUPolicyTh":
		v, err := parseF()
		if err != nil {
			return err
		}
		c.DefaultCPUPolicyTh = v
	case "DefaultUncPolicyTh":
		v, err := parseF()
		if err != nil {
			return err
		}
		c.DefaultUncPolicyTh = v
	case "MinSignatureWindowSec":
		v, err := parseF()
		if err != nil {
			return err
		}
		c.MinSignatureWindowSec = v
	case "SignatureChangeTh":
		v, err := parseF()
		if err != nil {
			return err
		}
		c.SignatureChangeTh = v
	case "AuthorizedPolicies":
		c.AuthorizedPolicies = nil
		for _, p := range strings.Split(val, ",") {
			if p = strings.TrimSpace(p); p != "" {
				c.AuthorizedPolicies = append(c.AuthorizedPolicies, p)
			}
		}
	case "ClusterPowerBudgetW":
		v, err := parseF()
		if err != nil {
			return err
		}
		c.ClusterPowerBudgetW = v
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}
