package eard

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func rec(job, step, node string, energy float64) JobRecord {
	return JobRecord{
		JobID: job, StepID: step, Node: node, App: "HPCG", Policy: "min_energy_eufs",
		TimeSec: 100, EnergyJ: energy, AvgPower: energy / 100,
	}
}

func TestInsertAndQuery(t *testing.T) {
	db := NewDB()
	for i := 0; i < 4; i++ {
		if err := db.Insert(rec("j1", "s0", fmt.Sprintf("node%d", i), 1000+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(rec("j2", "s0", "node0", 500)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 5 {
		t.Errorf("Len = %d, want 5", db.Len())
	}
	recs := db.Job("j1", "s0")
	if len(recs) != 4 {
		t.Fatalf("job records = %d, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Node < recs[i-1].Node {
			t.Error("records not sorted by node")
		}
	}
}

func TestInsertReplacesDuplicate(t *testing.T) {
	db := NewDB()
	if err := db.Insert(rec("j", "s", "n", 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(rec("j", "s", "n", 200)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1 (replacement)", db.Len())
	}
	if got := db.Job("j", "s")[0].EnergyJ; got != 200 {
		t.Errorf("energy = %v, want replacement 200", got)
	}
}

func TestInsertValidates(t *testing.T) {
	db := NewDB()
	bads := []JobRecord{
		{},
		{JobID: "j", Node: "n", TimeSec: 0},
		{JobID: "j", Node: "n", TimeSec: 1, EnergyJ: -5},
		{JobID: "j", TimeSec: 1},
	}
	for i, b := range bads {
		if err := db.Insert(b); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

// Raw float bits can carry what JSON never could. A non-finite value
// in any measurement must be refused: NaN != NaN would defeat the
// daemon's re-delivery check forever and poison every sum.
func TestValidateRejectsNonFinite(t *testing.T) {
	good := JobRecord{JobID: "j", StepID: "0", Node: "n", TimeSec: 10, EnergyJ: 1000, AvgPower: 100, AvgCPU: 2.1, AvgIMC: 2.4, AvgCPI: 0.6, AvgGBs: 48}
	if err := good.Validate(); err != nil {
		t.Fatalf("finite record refused: %v", err)
	}
	fields := map[string]func(*JobRecord) *float64{
		"TimeSec":  func(r *JobRecord) *float64 { return &r.TimeSec },
		"EnergyJ":  func(r *JobRecord) *float64 { return &r.EnergyJ },
		"AvgPower": func(r *JobRecord) *float64 { return &r.AvgPower },
		"AvgCPU":   func(r *JobRecord) *float64 { return &r.AvgCPU },
		"AvgIMC":   func(r *JobRecord) *float64 { return &r.AvgIMC },
		"AvgCPI":   func(r *JobRecord) *float64 { return &r.AvgCPI },
		"AvgGBs":   func(r *JobRecord) *float64 { return &r.AvgGBs },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := good
			*field(&r) = v
			if err := r.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
			if err := NewDB().Insert(r); err == nil {
				t.Errorf("%s = %v inserted", name, v)
			}
		}
	}
}

// Rows are grouped by job step and sorted lazily; whatever order
// records arrive in — the interleaved sorted runs of a shard merge,
// replacements included — every ordered read must equal what a store
// fed in canonical order returns, bit for bit.
func TestGroupedStoreIsOrderIndependent(t *testing.T) {
	var recs []JobRecord
	for j := 0; j < 4; j++ {
		for s := 0; s < 3; s++ {
			for n := 0; n < 17; n++ {
				recs = append(recs, rec(fmt.Sprintf("job%d", j), fmt.Sprint(s), fmt.Sprintf("node%03d", n*7%17), 1000+float64(j*100+s*10+n)/3))
			}
		}
	}
	ordered, shuffled := NewDB(), NewDB()
	for _, r := range recs {
		if err := ordered.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	canonical := ordered.Records()
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(len(recs))
	for n, i := range perm {
		stale := recs[i]
		stale.EnergyJ++ // replaced below by the real record
		if n%5 == 0 {
			if err := shuffled.Insert(stale); err != nil {
				t.Fatal(err)
			}
		}
		if n == len(perm)/2 {
			shuffled.Records() // an ordered read mid-stream sorts what is there
		}
		if err := shuffled.Insert(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := shuffled.Records(); !slices.Equal(got, canonical) {
		t.Fatal("Records() depends on insertion order")
	}
	if !slices.IsSortedFunc(canonical, func(a, b JobRecord) int {
		return cmp.Or(strings.Compare(a.JobID, b.JobID), strings.Compare(a.StepID, b.StepID), strings.Compare(a.Node, b.Node))
	}) {
		t.Fatal("Records() is not in (job, step, node) order")
	}
	if shuffled.Len() != len(recs) || !slices.Equal(shuffled.Jobs(), ordered.Jobs()) {
		t.Fatalf("Len %d / Jobs %v differ from the ordered store's", shuffled.Len(), shuffled.Jobs())
	}
	for _, js := range ordered.Jobs() {
		want, err := ordered.Summarize(js[0], js[1])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := shuffled.Summarize(js[0], js[1]); err != nil || got != want {
			t.Errorf("summary of %v = %+v (err %v), want %+v", js, got, err, want)
		}
		if !slices.Equal(shuffled.Job(js[0], js[1]), ordered.Job(js[0], js[1])) {
			t.Errorf("Job(%v) depends on insertion order", js)
		}
	}
	for _, r := range recs {
		if !slices.Contains(shuffled.Job(r.JobID, r.StepID), r) {
			t.Fatalf("Job(%s, %s) lacks node %s after the sorts", r.JobID, r.StepID, r.Node)
		}
	}
}

func TestSummarize(t *testing.T) {
	db := NewDB()
	if err := db.Insert(JobRecord{JobID: "j", StepID: "s", Node: "a", TimeSec: 100, EnergyJ: 30000, AvgPower: 300}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(JobRecord{JobID: "j", StepID: "s", Node: "b", TimeSec: 102, EnergyJ: 31000, AvgPower: 304}); err != nil {
		t.Fatal(err)
	}
	s, err := db.Summarize("j", "s")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 2 {
		t.Errorf("nodes = %d", s.Nodes)
	}
	if s.TimeSec != 102 {
		t.Errorf("time = %v, want slowest 102", s.TimeSec)
	}
	if s.EnergyJ != 61000 {
		t.Errorf("energy = %v, want 61000", s.EnergyJ)
	}
	if s.AvgPower != 302 {
		t.Errorf("avg power = %v, want 302", s.AvgPower)
	}
	if _, err := db.Summarize("missing", ""); err == nil {
		t.Error("expected error for missing job")
	}
}

func TestJobsSorted(t *testing.T) {
	db := NewDB()
	for _, js := range [][2]string{{"j2", "s0"}, {"j1", "s1"}, {"j1", "s0"}} {
		if err := db.Insert(rec(js[0], js[1], "n", 1)); err != nil {
			t.Fatal(err)
		}
	}
	jobs := db.Jobs()
	want := [][2]string{{"j1", "s0"}, {"j1", "s1"}, {"j2", "s0"}}
	if len(jobs) != len(want) {
		t.Fatalf("jobs = %v", jobs)
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Errorf("jobs[%d] = %v, want %v", i, jobs[i], want[i])
		}
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = db.Insert(rec("j", "s", fmt.Sprintf("w%d-n%d", w, i), 1))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		db.Len()
		db.Jobs()
		// The ordered reads sort a group in place while inserts land.
		db.Records()
		db.Job("j", "s")
		_, _ = db.Summarize("j", "s")
		// A pinned walk holds no lock: the inserts write a clone.
		pinned := db.Pin()
		n := 0
		pinned.Walk(func(*JobRecord) { n++ })
		if n != pinned.Len() {
			t.Fatalf("walked %d pinned records of %d", n, pinned.Len())
		}
		pinned.Release()
	}
	wg.Wait()
	if db.Len() != 200 {
		t.Errorf("Len = %d, want 200", db.Len())
	}
}

func TestByAppAggregation(t *testing.T) {
	db := NewDB()
	// HPCG job on two nodes; BT job on one node, twice the energy.
	for i, e := range []float64{30000, 31000} {
		if err := db.Insert(JobRecord{
			JobID: "j1", StepID: "0", Node: fmt.Sprintf("n%d", i),
			App: "HPCG", Policy: "min_energy", TimeSec: 100, EnergyJ: e, AvgPower: e / 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(JobRecord{
		JobID: "j2", StepID: "0", Node: "n0",
		App: "BT-MZ", Policy: "min_energy_eufs", TimeSec: 200, EnergyJ: 120000, AvgPower: 600,
	}); err != nil {
		t.Fatal(err)
	}
	apps := db.ByApp()
	if len(apps) != 2 {
		t.Fatalf("apps = %v", apps)
	}
	// Sorted by energy descending: BT-MZ (120 kJ) first.
	if apps[0].App != "BT-MZ" || apps[1].App != "HPCG" {
		t.Errorf("order = %s, %s", apps[0].App, apps[1].App)
	}
	hpcg := apps[1]
	if hpcg.Jobs != 1 {
		t.Errorf("HPCG jobs = %d, want 1 (two nodes, one job)", hpcg.Jobs)
	}
	if math.Abs(hpcg.EnergyKJ-61) > 1e-9 {
		t.Errorf("HPCG energy = %v kJ", hpcg.EnergyKJ)
	}
	if math.Abs(hpcg.NodeHours-200.0/3600) > 1e-12 {
		t.Errorf("HPCG node hours = %v", hpcg.NodeHours)
	}
	if math.Abs(hpcg.AvgPowerW-305) > 1e-9 {
		t.Errorf("HPCG avg power = %v, want 305", hpcg.AvgPowerW)
	}
}

func TestByPolicyAggregation(t *testing.T) {
	db := NewDB()
	for i := 0; i < 3; i++ {
		if err := db.Insert(JobRecord{
			JobID: fmt.Sprintf("j%d", i), StepID: "0", Node: "n0",
			App: "X", Policy: "min_energy_eufs", TimeSec: 100, EnergyJ: 10000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(JobRecord{
		JobID: "j9", StepID: "0", Node: "n0",
		App: "X", Policy: "monitoring", TimeSec: 100, EnergyJ: 11000,
	}); err != nil {
		t.Fatal(err)
	}
	pols := db.ByPolicy()
	if len(pols) != 2 {
		t.Fatalf("policies = %v", pols)
	}
	if pols[0].Policy != "min_energy_eufs" || pols[0].Jobs != 3 {
		t.Errorf("first = %+v", pols[0])
	}
	if pols[1].Policy != "monitoring" || math.Abs(pols[1].EnergyKJ-11) > 1e-9 {
		t.Errorf("second = %+v", pols[1])
	}
}

func TestJobLookup(t *testing.T) {
	db := NewDB()
	r := JobRecord{JobID: "j1", StepID: "0", Node: "n3", App: "X", TimeSec: 10, EnergyJ: 1000}
	if got := db.Job("j1", "0"); len(got) != 0 {
		t.Errorf("Job on empty DB = %+v", got)
	}
	if err := db.Insert(r); err != nil {
		t.Fatal(err)
	}
	if got := db.Job("j1", "0"); len(got) != 1 || got[0] != r {
		t.Errorf("Job = %+v; want [%+v]", got, r)
	}
	if got := db.Job("j1", "1"); len(got) != 0 {
		t.Errorf("Job matched a different step: %+v", got)
	}
}
