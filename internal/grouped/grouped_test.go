package grouped_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/grouped"
)

// instance is one instantiation of the store under test: how the
// record type splits into keys, and how the test draws records.
type instance[R comparable, S comparable] struct {
	group func(*R) grouped.Group
	sub   func(*R) S
	order func(a, b S) int
	end   func(*R) float64
	// draw builds a record from a small key space (job, step, node,
	// phase indexes) and a payload value, so random draws collide.
	draw func(job, step, node, phase int, payload float64) R
}

type nodePhase struct {
	node  string
	phase int
}

var (
	nodeReports = instance[eard.JobRecord, string]{
		group: func(r *eard.JobRecord) grouped.Group { return grouped.Group{Job: r.JobID, Step: r.StepID} },
		sub:   func(r *eard.JobRecord) string { return r.Node },
		order: strings.Compare,
		end:   func(r *eard.JobRecord) float64 { return r.TimeSec },
		draw: func(job, step, node, _ int, payload float64) eard.JobRecord {
			return eard.JobRecord{
				JobID: fmt.Sprintf("j%d", job), StepID: fmt.Sprint(step), Node: fmt.Sprintf("n%02d", node),
				TimeSec: float64(10 * (1 + job%3)), EnergyJ: payload,
			}
		},
	}
	jobEnergy = instance[accounting.Record, nodePhase]{
		group: func(r *accounting.Record) grouped.Group { return grouped.Group{Job: r.JobID, Step: r.StepID} },
		sub:   func(r *accounting.Record) nodePhase { return nodePhase{r.Node, r.Phase} },
		order: func(a, b nodePhase) int {
			return cmp.Or(strings.Compare(a.node, b.node), cmp.Compare(a.phase, b.phase))
		},
		end: func(r *accounting.Record) float64 { return r.EndSec },
		draw: func(job, step, node, phase int, payload float64) accounting.Record {
			return accounting.Record{
				V: accounting.CodecVersion, JobID: fmt.Sprintf("j%d", job), StepID: fmt.Sprint(step),
				User: "u", Node: fmt.Sprintf("n%02d", node), Phase: phase,
				// Ends tie across jobs on purpose: the key breaks them.
				EndSec: float64(100 * (1 + (job+phase)%3)), PkgJ: payload,
			}
		},
	}
)

// model is the oracle: a plain map, sorted when a dump is asked for.
type model[R comparable, S comparable] struct {
	inst instance[R, S]
	recs map[modelKey[S]]R
}

type modelKey[S comparable] struct {
	g   grouped.Group
	sub S
}

func (m *model[R, S]) key(r *R) modelKey[S] { return modelKey[S]{m.inst.group(r), m.inst.sub(r)} }

func (m *model[R, S]) insert(r R) grouped.Class {
	k := m.key(&r)
	prev, ok := m.recs[k]
	switch {
	case ok && prev == r:
		return grouped.Duplicate
	case ok:
		m.recs[k] = r
		return grouped.Replaced
	}
	m.recs[k] = r
	return grouped.Accepted
}

// dump returns the records in canonical order.
func (m *model[R, S]) dump() []R {
	out := make([]R, 0, len(m.recs))
	for _, r := range m.recs {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b R) int {
		return cmp.Or(m.inst.group(&a).Compare(m.inst.group(&b)), m.inst.order(m.inst.sub(&a), m.inst.sub(&b)))
	})
	return out
}

// prune evicts whole groups, oldest latest-end first, ties by key,
// until at most keep records remain.
func (m *model[R, S]) prune(keep int) int {
	type aged struct {
		g   grouped.Group
		end float64
		n   int
	}
	var groups []aged
	for _, r := range m.dump() { // canonical order: groups come out contiguous
		g := m.inst.group(&r)
		if n := len(groups); n == 0 || groups[n-1].g != g {
			groups = append(groups, aged{g: g, end: m.inst.end(&r)})
		}
		last := &groups[len(groups)-1]
		last.end = max(last.end, m.inst.end(&r))
		last.n++
	}
	slices.SortFunc(groups, func(a, b aged) int { return cmp.Or(cmp.Compare(a.end, b.end), a.g.Compare(b.g)) })
	evicted := 0
	for _, a := range groups {
		if len(m.recs) <= keep {
			break
		}
		for k := range m.recs {
			if k.g == a.g {
				delete(m.recs, k)
			}
		}
		evicted += a.n
	}
	return evicted
}

// exercise runs a random insert / replace / identical re-insert
// sequence, capped or not, against the model, checking after every
// step what the step returned, the size, and that the generation moved
// exactly when the contents did; and at intervals the whole dump.
func exercise[R comparable, S comparable](t *testing.T, inst instance[R, S], seed int64, keep int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := grouped.New(inst.group, inst.sub, inst.order)
	m := &model[R, S]{inst: inst, recs: map[modelKey[S]]R{}}
	var kept []R // drawn earlier, for identical re-inserts
	// moved checks one mutation: the generation moves iff the model's
	// contents did. It returns the contents after.
	moved := func(step int, what string, gen uint64, before []R) []R {
		after := m.dump()
		if moved, changed := st.Generation() != gen, !slices.Equal(before, after); moved != changed {
			t.Fatalf("step %d: %s: generation moved=%v but contents changed=%v", step, what, moved, changed)
		}
		return after
	}
	var after []R
	for step := 0; step < 1000; step++ {
		var r R
		if len(kept) > 0 && rng.Intn(4) == 0 {
			r = kept[rng.Intn(len(kept))]
		} else {
			r = inst.draw(rng.Intn(6), rng.Intn(2), rng.Intn(12), rng.Intn(2), float64(rng.Intn(3)))
			kept = append(kept, r)
		}
		gen := st.Generation()
		got, want := st.Insert(&r), m.insert(r)
		if got != want {
			t.Fatalf("step %d: insert classified %v, model says %v", step, got, want)
		}
		after = moved(step, "insert", gen, after)
		if keep > 0 {
			gen = st.Generation()
			if got, want := st.Prune(keep, inst.end), m.prune(keep); got != want {
				t.Fatalf("step %d: prune evicted %d records, model says %d", step, got, want)
			}
			after = moved(step, "prune", gen, after)
		}
		if st.Len() != len(m.recs) {
			t.Fatalf("step %d: Len %d, model holds %d", step, st.Len(), len(m.recs))
		}
		if step%50 != 0 {
			continue
		}
		// A survivor set equal to the model's is the prune-order check: a
		// store evicting in any other order keeps other groups.
		if dump := st.Append(nil); !slices.Equal(dump, after) {
			t.Fatalf("step %d: canonical dump differs from the sorted model\n got %v\nwant %v", step, dump, after)
		}
		var groups []grouped.Group
		for _, r := range after {
			if g := inst.group(&r); len(groups) == 0 || groups[len(groups)-1] != g {
				groups = append(groups, g)
			}
		}
		if got := st.Groups(); !slices.Equal(got, groups) {
			t.Fatalf("step %d: Groups() = %v, want %v", step, got, groups)
		}
		walked := 0
		st.Walk(func(r *R) {
			if walked >= len(after) || *r != after[walked] {
				t.Fatalf("step %d: Walk out of canonical order at row %d: %v", step, walked, *r)
			}
			walked++
		})
		if walked != len(after) {
			t.Fatalf("step %d: Walk visited %d rows, want %d", step, walked, len(after))
		}
		if len(groups) > 0 {
			g, i := groups[rng.Intn(len(groups))], 0
			var rows []R
			n := st.Each(g, func(r *R) { rows = append(rows, *r) })
			for _, r := range after {
				if inst.group(&r) == g {
					if i >= len(rows) || rows[i] != r {
						t.Fatalf("step %d: Each(%v) out of key order at row %d", step, g, i)
					}
					i++
				}
			}
			if n != i || len(rows) != i {
				t.Fatalf("step %d: Each(%v) visited %d rows, returned %d, want %d", step, g, len(rows), n, i)
			}
		}
	}
}

// TestStoreMatchesMapModel is the store's property test, run for both
// record types the aggregation tier instantiates it with: unbounded,
// and under a retention cap small enough that pruning happens all the
// time and slots are reused.
func TestStoreMatchesMapModel(t *testing.T) {
	for _, keep := range []int{0, 40} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("node_reports/keep=%d/seed=%d", keep, seed), func(t *testing.T) {
				exercise(t, nodeReports, seed, keep)
			})
			t.Run(fmt.Sprintf("job_energy/keep=%d/seed=%d", keep, seed), func(t *testing.T) {
				exercise(t, jobEnergy, seed, keep)
			})
		}
	}
}

// TestStoreRowsAreNeverRecopied pins the layout property the sizing
// rests on: filling a store allocates about one record's bytes per
// record (chunks) and its headers and slot regions per block, not per
// group or per region move.
func TestStoreRowsAreNeverRecopied(t *testing.T) {
	const n = 64 * 32
	recs := make([]eard.JobRecord, n)
	for i := range recs {
		recs[i] = nodeReports.draw(i%8, 0, i/8, 0, 1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		st := grouped.New(nodeReports.group, nodeReports.sub, nodeReports.order)
		for i := range recs {
			st.Insert(&recs[i])
		}
	})
	// 32 chunks, the chunk list's growth, three header blocks, about a
	// dozen slot blocks, the groups map and the store: 53. A region
	// allocated per group and grown by doubling takes 113.
	if allocs > 64 {
		t.Errorf("filling %d rows took %.0f allocations; rows are being boxed or re-copied", n, allocs)
	}
}
