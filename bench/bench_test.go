package main

import (
	"encoding/json"
	"reflect"
	"regexp"
	"testing"
)

// tinyScale runs every workload in well under a second so tier-1
// covers the harness end to end.
var tinyScale = scale{
	steady:    ingestSizes{nodes: 24, recsPerNode: 8, acctPerNode: 2, batch: 4, shards: 4, rounds: 2},
	replay:    ingestSizes{nodes: 32, recsPerNode: 8, acctPerNode: 0, batch: 4, shards: 4, rounds: 2},
	query:     querySizes{nodes: 40, recsPerNode: 4, acctPerNode: 8, shards: 4, ops: 100},
	cluster:   clusterSizes{nodes: 8, refNodes: 4},
	campaign:  campaignSizes{ids: []string{"table2", "fig1"}},
	probe:     probeSizes{nodes: 8, recsPerNode: 8, fedNodes: 16, batchNodes: 8, gmNodes: 64},
	minTrials: 2,
	maxTrials: 2,
}

func loadContract(t *testing.T) contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// named is one metric's name and unit as BENCHMARK.json lists it.
type named struct{ name, unit string }

var nameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames requires got to be exactly the contract's metrics, in
// name and unit.
func checkNames(t *testing.T, kind string, got []metric, want []named) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if !nameRx.MatchString(m.name) {
			t.Errorf("%s metric name %q is not a valid name", kind, m.name)
		}
		if _, dup := units[m.name]; dup {
			t.Errorf("%s metric %s emitted twice", kind, m.name)
		}
		units[m.name] = m.unit
	}
	for _, w := range want {
		u, ok := units[w.name]
		switch {
		case !ok:
			t.Errorf("%s metric %s of BENCHMARK.json is not emitted", kind, w.name)
		case u != w.unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, w.name, u, w.unit)
		}
		delete(units, w.name)
	}
	for name := range units {
		t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, name)
	}
}

func tinyRun(t *testing.T, name string, seed int64, trace bool) report {
	t.Helper()
	rep, err := runOne(options{workload: name, seed: seed, trace: trace, scale: tinyScale, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, rep.correct, rep.attempted, rep.failed)
	}
	return rep
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at tiny
// size: the end-to-end metrics are the contract's, exact counts and the
// output digest repeat for one seed, and the digest moves with the seed
// wherever the seed reaches the output.
func TestWorkloadsSmoke(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var gated []named
	for _, m := range c.EndToEnd {
		gated = append(gated, named{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames())
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 1, false)
			b := tinyRun(t, name, 1, false)
			other := tinyRun(t, name, 2, false)
			checkNames(t, "end-to-end", a.endToEnd, gated)
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("exact counts differ between two seed-1 runs:\n%v\n%v", a.counts, b.counts)
			}
			if a.digest != b.digest || a.digest == 0 {
				t.Errorf("output digests %x and %x of two seed-1 runs", a.digest, b.digest)
			}
			// The campaign's tables are the paper's fixed-seed artefacts; its
			// seed only orders the requests.
			if name != "sim-campaign" && other.digest == a.digest {
				t.Errorf("seed 2 produced the same output digest %x as seed 1", a.digest)
			}
			for _, m := range a.endToEnd {
				if m.value <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, m.value)
				}
			}
			switch name {
			case "ingest-steady":
				if a.counts["client.spilled_batches"] != 0 || a.counts["client.batches"] == 0 {
					t.Errorf("steady ingest spilled %g of %g batches", a.counts["client.spilled_batches"], a.counts["client.batches"])
				}
			case "ingest-replay":
				sp, rp := a.counts["client.spilled_batches"], a.counts["client.replayed_batches"]
				if sp == 0 || sp != rp {
					t.Errorf("spilled %g, replayed %g: want equal and > 0", sp, rp)
				}
			case "query-mixed":
				writes := float64(tinyScale.query.ops / queryBlock)
				if got := a.counts["fed.cache_misses"]; got != writes+1 {
					t.Errorf("cache misses %g, want one per write plus the cold query = %g", got, writes+1)
				}
			case "sim-cluster":
				if a.counts["sim.simulated_time_s"] == other.counts["sim.simulated_time_s"] {
					t.Errorf("simulated time %g did not move with the seed", a.counts["sim.simulated_time_s"])
				}
			}
		})
	}
}

// TestLedgerNames runs one traced pass and requires the per-layer
// ledger to be exactly BENCHMARK.json's per_layer list.
func TestLedgerNames(t *testing.T) {
	c := loadContract(t)
	rep := tinyRun(t, "ingest-replay", 1, true)
	var ledger []named
	for _, m := range c.PerLayer {
		ledger = append(ledger, named{m.Name, m.Unit})
	}
	checkNames(t, "per-layer", rep.perLayer, ledger)
	if len(rep.selfTimes) == 0 {
		t.Error("traced trial recorded no spans")
	}
	line := resultLine(rep, true)
	var res resultJSON
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(res.Metrics) != len(c.PerLayer) || !res.Correct {
		t.Errorf("result line carries %d metrics (correct=%v), want %d", len(res.Metrics), res.Correct, len(c.PerLayer))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
