package accounting

import "fmt"

// Usage carries one tenant's usage counters over a window — the
// evidence the ratio model splits energy by.
type Usage struct {
	// Instr is retired instructions (work share).
	Instr float64
	// Cycles is unhalted core cycles (occupancy share).
	Cycles float64
	// DRAMBytes is memory traffic (bandwidth share).
	DRAMBytes float64
}

// Tenant is one job resident on a node during a window.
type Tenant struct {
	Meta  Meta
	Usage Usage
	Rates Rates
}

// column names one usage counter of a tenant.
type column int

const (
	instrCol column = iota
	cyclesCol
	trafficCol
)

func (u Usage) get(c column) float64 {
	switch c {
	case instrCol:
		return u.Instr
	case cyclesCol:
		return u.Cycles
	}
	return u.DRAMBytes
}

// pick returns first when any tenant has positive evidence in it, else
// fallback, so each domain degrades gracefully when a counter is
// missing (e.g. no DRAM-bandwidth events): DRAM traffic falls back to
// cycles, cycles to instructions.
func pick(tenants []Tenant, first, fallback column) column {
	for i := range tenants {
		if tenants[i].Usage.get(first) > 0 {
			return first
		}
	}
	return fallback
}

// split sets field of each record to its tenant's share of total by
// usage column c, conserving the sum: every positive-weight tenant but
// the last gets total*w/sum, and the last positive-weight tenant gets
// the remainder, so the split re-adds to total to within one ulp
// regardless of how the divisions round. Tenants without positive
// weight keep the zero their record starts with; all-zero (or
// negative-clamped) weights fall back to an equal split.
func split(recs []Record, tenants []Tenant, c column, total float64, field func(*Record) *float64) {
	var sum float64
	last := -1
	for i := range tenants {
		if x := tenants[i].Usage.get(c); x > 0 {
			sum += x
			last = i
		}
	}
	var acc float64
	if last < 0 {
		// No evidence to split by: equal shares, remainder to the last.
		n := float64(len(recs))
		for i := range recs[:len(recs)-1] {
			*field(&recs[i]) = total / n
			acc += *field(&recs[i])
		}
		*field(&recs[len(recs)-1]) = total - acc
		return
	}
	for i := range tenants[:last] {
		if x := tenants[i].Usage.get(c); x > 0 {
			*field(&recs[i]) = total * (x / sum)
			acc += *field(&recs[i])
		}
	}
	// Clamp: rounding can push acc a fraction of an ulp past total, and
	// a -1e-13 J share would fail validation.
	share := field(&recs[last])
	if *share = total - acc; *share < 0 {
		*share = 0
	}
}

func pkgJ(r *Record) *float64    { return &r.PkgJ }
func dramJ(r *Record) *float64   { return &r.DramJ }
func uncoreJ(r *Record) *float64 { return &r.UncoreJ }
func nodeJ(r *Record) *float64   { return &r.NodeJ }

// Attribute ratio-splits a node window's measured per-domain energy
// across the resident tenants by their usage counters, the Kepler
// GetPowerFromUsageRatio model applied per domain:
//
//   - PKG energy follows the cycle share (occupancy of the socket),
//     falling back to the instruction share;
//   - DRAM energy follows the memory-traffic share, falling back to
//     instructions;
//   - uncore energy (the mesh/IMC slice of PKG) follows memory
//     traffic, falling back to cycles — the uncore works for whoever
//     moves data;
//   - node (DC meter) energy follows the instruction share: static and
//     board power is charged in proportion to useful work, as Kepler
//     charges idle power by dynamic ratio.
//
// It appends one record per tenant to dst, in tenant order, and
// returns the extended slice; each domain is split in one pass over
// the tenants straight into the appended records, so a dst with room
// costs no allocation. On error dst is returned as it came.
//
// Each domain conserves: the appended records' joules sum back to the
// window totals to within one ulp. The result depends only on the
// inputs — no clocks, no maps — so two daemons attributing the same
// window emit byte-identical records.
func Attribute(dst []Record, w Window, total Energy, tenants []Tenant) ([]Record, error) {
	if len(tenants) == 0 {
		return dst, fmt.Errorf("accounting: attribute %s phase %d: no tenants", w.Node, w.Phase)
	}
	base := len(dst)
	for i := range tenants {
		dst = append(dst, newRecord(tenants[i].Meta, w, Energy{}, tenants[i].Rates))
	}
	recs := dst[base:]
	split(recs, tenants, pick(tenants, cyclesCol, instrCol), total.PkgJ, pkgJ)
	split(recs, tenants, pick(tenants, trafficCol, instrCol), total.DramJ, dramJ)
	split(recs, tenants, pick(tenants, trafficCol, cyclesCol), total.UncoreJ, uncoreJ)
	split(recs, tenants, pick(tenants, instrCol, cyclesCol), total.NodeJ, nodeJ)
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return dst[:base], fmt.Errorf("accounting: attribute %s phase %d tenant %d: %w", w.Node, w.Phase, i, err)
		}
	}
	return dst, nil
}
