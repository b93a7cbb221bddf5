package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"time"

	"goear/internal/eargm"
	"goear/internal/experiments"
	"goear/internal/model"
	"goear/internal/par"
	"goear/internal/sim"
	"goear/internal/workload"
)

// clusterSizes is the shape of sim-cluster.
type clusterSizes struct {
	nodes    int // lock-step nodes of the timed campaign
	refNodes int // nodes of the batch-vs-reference output check
}

const (
	clusterWorkload = workload.BTMZC
	clusterPolicy   = "min_energy_eufs"
	budgetPerNodeW  = 300
	tickSec         = 0.01 // sim.Options.StepSec default: one node-tick
)

// simCluster is the coordinated cluster campaign: every node of one
// catalogue workload stepped tick by tick on the batch kernels under an
// EARGM power budget.
type simCluster struct {
	seed int64
	sz   clusterSizes

	cal workload.Calibrated
	mdl *model.Model
	gm  *eargm.Manager

	res      sim.Result
	first    []byte // first trial's result; every later trial must equal it
	refCheck bool
	sum      uint64
}

func (w *simCluster) unit() string { return "simulated node-tick" }

func (w *simCluster) describe() string {
	return fmt.Sprintf("workload=%s nodes=%d policy=%s budget=%dW/node exact=true workers=%d check_nodes=%d",
		clusterWorkload, w.sz.nodes, clusterPolicy, budgetPerNodeW, clients, w.sz.refNodes)
}

// calibrate solves the workload at the given node count.
func calibrate(nodes int) (workload.Calibrated, error) {
	spec, err := workload.Lookup(clusterWorkload)
	if err != nil {
		return workload.Calibrated{}, err
	}
	spec.Nodes = nodes
	return spec.Calibrate()
}

func (w *simCluster) setup() error {
	cal, err := calibrate(w.sz.nodes)
	if err != nil {
		return err
	}
	mdl, err := model.TrainForCPU(cal.Platform.Machine, cal.Platform.Power)
	if err != nil {
		return err
	}
	w.cal, w.mdl = cal, mdl
	return w.prepare()
}

func newManager(nodes int) (*eargm.Manager, error) {
	return eargm.New(eargm.Config{BudgetW: budgetPerNodeW * float64(nodes), MaxCapPstate: 8})
}

// prepare gives the trial a fresh manager: the ratchet is stateful.
func (w *simCluster) prepare() error {
	var err error
	w.gm, err = newManager(w.sz.nodes)
	return err
}

func (w *simCluster) options() sim.Options {
	return sim.Options{Policy: clusterPolicy, Seed: w.seed, Model: w.mdl, Workers: clients}
}

func (w *simCluster) run(tr *tracer, parent int) (trialOut, error) {
	sp := tr.start("sim.run", parent)
	t0 := time.Now()
	res, err := sim.RunCoordinated(w.cal, w.options(), w.gm)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	tr.end(sp)
	if err != nil {
		return trialOut{}, err
	}
	w.res = res
	ticks := len(res.Nodes) * int(math.Round(res.TimeSec/tickSec))
	out := trialOut{work: ticks, attempted: w.sz.nodes, latUS: []float64{us}}
	out.failed = w.sz.nodes - len(res.Nodes)
	return out, nil
}

// verify checks that the batch kernels agree with the per-node
// reference path on a small cluster (once), and that every trial of
// the timed campaign produced the same result.
func (w *simCluster) verify() error {
	if !w.refCheck {
		cal, err := calibrate(w.sz.refNodes)
		if err != nil {
			return err
		}
		var got [2]sim.Result
		for i, ref := range []bool{false, true} {
			gm, err := newManager(w.sz.refNodes)
			if err != nil {
				return err
			}
			opt := w.options()
			opt.ReferenceStep = ref
			if got[i], err = sim.RunCoordinated(cal, opt, gm); err != nil {
				return err
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			return fmt.Errorf("%d-node batch result differs from the ReferenceStep path", w.sz.refNodes)
		}
		w.refCheck = true
	}
	enc, err := json.Marshal(w.res)
	if err != nil {
		return err
	}
	if w.first == nil {
		w.first = enc
	} else if !bytes.Equal(enc, w.first) {
		return fmt.Errorf("trial result differs from the first trial's")
	}
	h := fnv.New64a()
	_, _ = h.Write(enc) // hash writes cannot fail
	w.sum = h.Sum64()
	return nil
}

func (w *simCluster) digest() uint64 { return w.sum }

func (w *simCluster) counts() map[string]float64 {
	return map[string]float64{
		"sim.simulated_time_s": w.res.TimeSec,
		"sim.energy_j_mean":    w.res.EnergyJ,
		"sim.avg_imc_ghz":      w.res.AvgIMCGHz,
	}
}

func (w *simCluster) close() error { return nil }

// campaignSizes is the shape of sim-campaign.
type campaignSizes struct {
	ids []string // experiments to generate; nil = all of them
}

// simCampaign regenerates the paper's tables and figures: many short
// per-node sim.Run calls behind a shared run cache, macro-stepped, two
// generators in flight.
type simCampaign struct {
	sz campaignSizes

	ids  []string
	warm *experiments.Context

	stats  experiments.CacheStats
	tables map[string][]byte // last trial's rendered tables by id
	ref    map[string][]byte // the Parallel-1 rendering
	sum    uint64
}

func (w *simCampaign) unit() string { return "experiment generated" }

func (w *simCampaign) describe() string {
	return fmt.Sprintf("experiments=%d runs=1 macro_step=true parallel=%d order=%v", len(w.ids), clients, w.ids)
}

// setup trains both platforms' models and calibrates the kernels: what
// the first table of a session pays. The seed has nothing to reach:
// the paper's artefacts fix their own seeds, and reordering the
// requests would change the two-worker schedule's makespan, making
// work_per_s a function of the seed.
func (w *simCampaign) setup() error {
	w.ids = w.sz.ids
	if w.ids == nil {
		w.ids = experiments.IDs()
	}
	w.warm = experiments.NewQuick()
	w.warm.Parallel = clients
	if _, err := w.warm.Generate("table2"); err != nil {
		return err
	}
	w.ref = nil
	return nil
}

func (w *simCampaign) prepare() error { return nil }

// campaign generates ids on a fresh run cache over the warm models and
// calibrations and returns the rendered tables.
func (w *simCampaign) campaign(parallel int, tr *tracer, parent int) (*experiments.Context, map[string][]byte, error) {
	ctx := experiments.NewFrom(w.warm)
	ctx.Parallel = parallel
	out := make([][]byte, len(w.ids))
	err := par.ForEach(parallel, len(w.ids), func(j int) error {
		sp := tr.start("experiments.generate."+w.ids[j], parent)
		tables, err := ctx.Generate(w.ids[j])
		tr.end(sp)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		for _, t := range tables {
			if err := t.Render(&buf); err != nil {
				return err
			}
		}
		out[j] = buf.Bytes()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	byID := make(map[string][]byte, len(w.ids))
	for j, id := range w.ids {
		byID[id] = out[j]
	}
	return ctx, byID, nil
}

func (w *simCampaign) run(tr *tracer, parent int) (trialOut, error) {
	t0 := time.Now()
	ctx, tables, err := w.campaign(clients, tr, parent)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		return trialOut{}, err
	}
	w.stats, w.tables = ctx.Stats(), tables
	// Calibrations the campaign added are kept, so only the warm-up
	// trial pays them; runs are never carried over.
	w.warm = ctx
	return trialOut{work: len(w.ids), attempted: len(w.ids), latUS: []float64{us}}, nil
}

// verify renders the campaign once sequentially and requires every
// trial's tables to match it byte for byte.
func (w *simCampaign) verify() error {
	if w.ref == nil {
		_, ref, err := w.campaign(1, nil, 0)
		if err != nil {
			return fmt.Errorf("sequential campaign: %w", err)
		}
		w.ref = ref
	}
	h := fnv.New64a()
	for _, id := range experiments.IDs() {
		got, ok := w.tables[id]
		if !ok {
			continue
		}
		if !bytes.Equal(got, w.ref[id]) {
			return fmt.Errorf("%s rendered differently at Parallel %d and Parallel 1", id, clients)
		}
		_, _ = h.Write(got) // hash writes cannot fail
	}
	w.sum = h.Sum64()
	return nil
}

func (w *simCampaign) digest() uint64 { return w.sum }

func (w *simCampaign) counts() map[string]float64 {
	out := map[string]float64{"experiments.runs_executed": float64(w.stats.RunsExecuted)}
	if n := w.stats.RunsExecuted + w.stats.RunHits; n > 0 {
		out["experiments.cache_hit_ratio"] = float64(w.stats.RunHits) / float64(n)
	}
	return out
}

func (w *simCampaign) close() error { return nil }
