package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// contract is the part of BENCHMARK.json the harness reads: which
// workloads to run, for how long, each gated metric's direction and
// bound (the A/A mode), and the ledger's names (the smoke test).
// Reading it keeps the table, the test and the gate on one definition.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readContract loads BENCHMARK.json from path.
func readContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// resultJSON is the last line a run prints.
type resultJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runAA runs 2n passes over every workload — each pass a fresh process
// with its own seed, as the acceptance check does — assigns the passes
// alternately to set A and set B, and prints per metric each set's
// median, quartiles and spread, the worsening of B's median over A's,
// and pass/fail against the metric's bound.
func runAA(n int, opt options, out io.Writer) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the A/A mode runs from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] collects one value per pass.
	values := map[string]map[string]*[2][]float64{}
	for pass := 0; pass < 2*n; pass++ {
		for _, wl := range c.Workloads {
			if opt.workload != "" && opt.workload != wl.Name {
				continue
			}
			seed := opt.seed + int64(pass)
			res, err := runChild(self, wl.Name, seed, c.RunSeconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			fmt.Fprintf(out, "# pass %d/%d %s seed=%d allocs_per_work=%.6g loadavg1=%.2f\n",
				pass+1, 2*n, wl.Name, seed, res.Metrics["allocs_per_work"].Value, loadavg1())
			if values[wl.Name] == nil {
				values[wl.Name] = map[string]*[2][]float64{}
			}
			for name, m := range res.Metrics {
				if values[wl.Name][name] == nil {
					values[wl.Name][name] = &[2][]float64{}
				}
				values[wl.Name][name][pass%2] = append(values[wl.Name][name][pass%2], m.Value)
			}
		}
	}

	failed := 0
	fmt.Fprintf(out, "\n| workload | metric | unit | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | B worse by | max dev | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			sets := values[wl.Name][m.Name]
			if sets == nil {
				continue
			}
			var med, spread [2]float64
			var cells [2]string
			maxDev := 0.0
			for s := 0; s < 2; s++ {
				q1, q2, q3 := quartiles(sets[s])
				med[s] = q2
				if q2 != 0 {
					spread[s] = (q3 - q1) / q2
				}
				for _, v := range sets[s] {
					if q2 != 0 {
						maxDev = math.Max(maxDev, math.Abs(v-q2)/q2)
					}
				}
				cells[s] = fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
			}
			worse := 0.0
			if med[0] != 0 {
				worse = (med[1] - med[0]) / med[0]
				if m.Better == "higher" {
					worse = -worse
				}
			}
			// The gate: B's median no worse than A's by more than the bound,
			// and — except for setup_s — both spreads inside the bound. A
			// spread above a third of the bound is flagged as loud.
			verdict := "pass"
			gated := math.Max(spread[0], spread[1])
			if m.Name == "setup_s" {
				gated = 0
			}
			switch {
			case worse > m.Bound || gated > m.Bound:
				verdict = "FAIL"
				failed++
			case gated > m.Bound/3:
				verdict = "pass (loud)"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %s | %.2f%% | %s | %.2f%% | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, cells[0], 100*spread[0], cells[1], 100*spread[1], 100*worse, 100*maxDev, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", failed)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its result
// line.
func runChild(self, name string, seed int64, seconds int) (resultJSON, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return resultJSON{}, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return resultJSON{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return resultJSON{}, fmt.Errorf("run reported incorrect output")
	}
	return res, nil
}
