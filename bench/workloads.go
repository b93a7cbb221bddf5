package main

import "fmt"

// scale fixes every workload's input sizes and the trial-count window.
// fullScale is the benchmark; the smoke test runs a tiny one.
type scale struct {
	steady, replay ingestSizes
	query          querySizes
	cluster        clusterSizes
	campaign       campaignSizes
	probe          probeSizes
	// minTrials are always run; further trials start while the -seconds
	// window is open, up to maxTrials.
	minTrials, maxTrials int
	// Set-up repeats at least setupReps times and until this many
	// seconds have been spent on it, so a millisecond-scale set-up is
	// the median of hundreds of repetitions rather than of five.
	setupBudgetSec float64
}

// fullScale keeps every working set small — on the shared reference box
// the neighbours' memory traffic is the dominant noise, and it hits
// cache-exceeding state hardest (see README) — and gets a trial to
// 0.4–0.8 s by repetition; a whole run stays under 20 s.
var fullScale = scale{
	steady:    ingestSizes{nodes: 150, recsPerNode: 24, acctPerNode: 4, batch: 32, shards: 4, rounds: 10},
	replay:    ingestSizes{nodes: 250, recsPerNode: 16, acctPerNode: 0, batch: 4, shards: 4, rounds: 10},
	query:     querySizes{nodes: 200, recsPerNode: 10, acctPerNode: 8, shards: 4, ops: 200},
	cluster:   clusterSizes{nodes: 1024, refNodes: 64},
	probe:     probeSizes{nodes: 64, recsPerNode: 32, fedNodes: 256, batchNodes: 1024, gmNodes: 4096},
	minTrials: 7,
	maxTrials: 25,

	setupBudgetSec: 1,
}

// workloads lists the scenarios in BENCHMARK.json's order.
var workloads = []struct {
	name string
	new  func(seed int64, sc scale) scenario
}{
	{"ingest-steady", func(seed int64, sc scale) scenario { return &ingest{seed: seed, sz: sc.steady} }},
	{"ingest-replay", func(seed int64, sc scale) scenario { return &ingest{seed: seed, sz: sc.replay, replay: true} }},
	{"query-mixed", func(seed int64, sc scale) scenario { return &queryMixed{seed: seed, sz: sc.query} }},
	{"sim-cluster", func(seed int64, sc scale) scenario { return &simCluster{seed: seed, sz: sc.cluster} }},
	{"sim-campaign", func(_ int64, sc scale) scenario { return &simCampaign{sz: sc.campaign} }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func newWorkload(name string, seed int64, sc scale) (scenario, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new(seed, sc), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}
