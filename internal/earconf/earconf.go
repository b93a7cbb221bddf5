// Package earconf parses the cluster configuration file that drives
// EAR's defaults, in the spirit of ear.conf: the sysadmin sets the
// default policy and its thresholds, the signature cadence, the
// authorised policy list, and the global manager's power budget; users
// may then only tighten, not loosen, what the file allows.
//
// The format is the INI-like key=value layout ear.conf uses, where a
// key is the name of a Config field:
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
	"reflect"
	"strconv"
	"strings"
)

// Config is the parsed cluster configuration.
type Config struct {
	// DefaultPolicy is applied when a job does not request one.
	DefaultPolicy string
	// DefaultCPUPolicyTh and DefaultUncPolicyTh are the site's policy
	// thresholds.
	DefaultCPUPolicyTh float64
	DefaultUncPolicyTh float64
	// MinSignatureWindowSec is EARL's signature cadence floor.
	MinSignatureWindowSec float64
	// SignatureChangeTh re-applies policies on behaviour changes.
	SignatureChangeTh float64
	// AuthorizedPolicies restricts which policies jobs may request;
	// empty means all policies.
	AuthorizedPolicies []string
	// ClusterPowerBudgetW enables the global manager when positive.
	ClusterPowerBudgetW float64
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

// set applies one key: the Config field of that name, parsed by its
// type. A list is comma-separated, with items trimmed and empty ones
// dropped.
func (c *Config) set(key, val string) error {
	f := reflect.ValueOf(c).Elem().FieldByName(key)
	if !f.CanSet() {
		return fmt.Errorf("unknown key %q", key)
	}
	switch p := f.Addr().Interface().(type) {
	case *string:
		*p = val
	case *float64:
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		*p = v
	case *[]string:
		*p = nil
		for _, item := range strings.Split(val, ",") {
			if item = strings.TrimSpace(item); item != "" {
				*p = append(*p, item)
			}
		}
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}
