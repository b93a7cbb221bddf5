package eargm

import (
	"fmt"
	"strconv"

	"goear/internal/telemetry/trace"
)

// This file implements the cascaded form of the global manager. EAR's
// large deployments do not run one EARGM over every node: a top-level
// budget is split across islands, and a per-island manager ratchets
// its own pstate ceiling against its own EARDBD's aggregate. The
// Cascade reproduces that shape over the federation tier: each island
// is a (name, PowerSource) pair — in production the source is an
// fed.Root IslandSource view of one shard — and the cluster budget is
// re-apportioned every interval from the islands' current draw.
//
// Apportioning is reserve-plus-proportional: a reserved fraction of
// the cluster budget is split equally (so an idle island never starves
// to a zero budget, which the ratchet cannot represent), and the rest
// follows each island's share of the observed cluster draw. The split
// is computed in island order with plain float sums, so a cascade over
// a deterministic source replays byte-identically.

// Island is one budget domain of a cascaded deployment.
type Island struct {
	// Name labels the island in telemetry and traces.
	Name string
	// Src supplies the island's per-node power view. Implementations
	// must return nodes in a deterministic order.
	Src PowerSource
}

// reserveFrac is the fraction of the cluster budget split equally
// across islands regardless of draw; the remainder is apportioned
// proportionally to each island's observed power.
const reserveFrac = 0.2

// CascadeConfig parameterises a cascaded manager.
type CascadeConfig struct {
	// BudgetW is the cluster-wide DC power budget in watts.
	BudgetW float64
	// Island templates the per-island managers: every field but BudgetW
	// applies as in a flat deployment. BudgetW is owned by the cascade
	// and overwritten every interval.
	Island Config
	// Trace, when set, records one eargm.interval span per Update with
	// an eargm.island child per island (created in island order),
	// annotated with the apportioned budget, observed draw and
	// resulting cap. Span times are the logical interval time, so
	// cascade traces replay byte-identically.
	Trace *trace.Buffer
}

// validate reports whether the configuration is usable.
func (c CascadeConfig) validate() error {
	if !usable(c.BudgetW) {
		return fmt.Errorf("eargm: cascade budget must be positive and finite, got %g", c.BudgetW)
	}
	return nil
}

// Cascade runs one Manager per island under a shared cluster budget.
type Cascade struct {
	cfg     CascadeConfig
	islands []Island
	mgrs    []*Manager
	tel     cascadeTel
	tracer  *trace.Tracer
}

// NewCascade builds a cascade over the given islands. Island names
// must be unique and non-empty, and every island needs a source.
func NewCascade(cfg CascadeConfig, islands []Island) (*Cascade, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(islands) == 0 {
		return nil, fmt.Errorf("eargm: cascade needs at least one island")
	}
	seen := map[string]bool{}
	for _, isl := range islands {
		switch {
		case isl.Name == "":
			return nil, fmt.Errorf("eargm: island needs a name")
		case isl.Src == nil:
			return nil, fmt.Errorf("eargm: island %s needs a power source", isl.Name)
		case seen[isl.Name]:
			return nil, fmt.Errorf("eargm: duplicate island name %s", isl.Name)
		}
		seen[isl.Name] = true
	}
	c := &Cascade{
		cfg:     cfg,
		islands: islands,
		mgrs:    make([]*Manager, len(islands)),
		tel:     newCascadeTel(cfg.Island.Telemetry, islands),
		tracer:  trace.New("eargm", cfg.Trace),
	}
	for i := range islands {
		mcfg := cfg.Island
		// Seed every island with the equal split; the first Update
		// re-apportions from live draw.
		mcfg.BudgetW = cfg.BudgetW / float64(len(islands))
		m, err := New(mcfg)
		if err != nil {
			return nil, fmt.Errorf("eargm: island %s: %w", islands[i].Name, err)
		}
		c.mgrs[i] = m
	}
	return c, nil
}

// Interval returns the islands' shared control period.
func (c *Cascade) Interval() float64 { return c.mgrs[0].Interval() }

// apportion splits the cluster budget across islands given their
// current draws: the reserved fraction equally, the rest proportional
// to draw (equally again when the cluster reads zero).
func (c *Cascade) apportion(draws []float64) []float64 {
	n := float64(len(c.islands))
	total := 0.0
	for _, d := range draws {
		total += d
	}
	out := make([]float64, len(draws))
	reserve := reserveFrac * c.cfg.BudgetW / n
	pool := (1 - reserveFrac) * c.cfg.BudgetW
	for i, d := range draws {
		if total > 0 {
			out[i] = reserve + pool*(d/total)
		} else {
			out[i] = reserve + pool/n
		}
	}
	return out
}

// Update runs one cascaded control interval: poll every island's
// source, re-apportion the cluster budget from the observed draws,
// then ratchet each island manager against its own nodes under its
// new budget. It returns the per-island caps in island order.
func (c *Cascade) Update(now float64) ([]int, error) {
	sp := c.tracer.Root(spanGMInterval, now)
	defer func() { sp.End(now) }()
	powers := make([][]float64, len(c.islands))
	draws := make([]float64, len(c.islands))
	for i, isl := range c.islands {
		powers[i] = isl.Src.NodePowers()
		for _, p := range powers[i] {
			draws[i] += p
		}
	}
	budgets := c.apportion(draws)
	caps := make([]int, len(c.islands))
	for i, m := range c.mgrs {
		isp := sp.Child(spanGMIsland, now)
		isp.Attr("island", c.islands[i].Name)
		if err := m.setBudget(budgets[i]); err != nil {
			isp.End(now)
			return nil, fmt.Errorf("eargm: island %s: %w", c.islands[i].Name, err)
		}
		cap, err := m.Update(now, powers[i])
		if err != nil {
			isp.End(now)
			return nil, fmt.Errorf("eargm: island %s: %w", c.islands[i].Name, err)
		}
		caps[i] = cap
		c.tel.island(i, budgets[i], draws[i], cap)
		isp.Attr("budget_w", strconv.FormatFloat(budgets[i], 'g', -1, 64)).
			Attr("draw_w", strconv.FormatFloat(draws[i], 'g', -1, 64)).
			Attr("cap", strconv.Itoa(cap)).
			End(now)
	}
	c.tel.updates.Inc()
	return caps, nil
}
