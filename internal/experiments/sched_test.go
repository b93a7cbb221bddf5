package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"goear/internal/policy"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

var errTest = errors.New("boom")

func TestFlightExactlyOnce(t *testing.T) {
	var f flight[string, int]
	var calls int
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.do(nil, runCache, "k", func() (int, error) {
				calls++ // safe: do guarantees exactly one execution
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if f.len() != 1 {
		t.Fatalf("len = %d, want 1", f.len())
	}
}

func TestFlightSnapshotSkipsErrors(t *testing.T) {
	var f flight[string, int]
	f.do(nil, runCache, "good", func() (int, error) { return 1, nil })
	f.do(nil, runCache, "bad", func() (int, error) { return 0, errTest })
	var shared flight[string, int]
	shared.share(&f)
	if v, err := shared.do(nil, runCache, "good", func() (int, error) { return 2, nil }); shared.len() != 1 || v != 1 || err != nil {
		t.Fatalf("shared %d entries, good = %d, %v; want only the good entry, 1", shared.len(), v, err)
	}
	if shared.computes.Value() != 0 {
		t.Error("a shared entry was computed again")
	}
	// Errors are cached: a second call must not re-run the function.
	ran := false
	if _, err := f.do(nil, runCache, "bad", func() (int, error) { ran = true; return 0, nil }); err == nil {
		t.Error("cached error lost")
	}
	if ran {
		t.Error("failed entry re-executed")
	}
}

// TestCacheActivityPerSet: two contexts working at once, each passing
// its own telemetry set in the run options, count their cache activity
// into their own set only — each set's series equal its context's
// Stats — and a request without a set counts into neither.
func TestCacheActivityPerSet(t *testing.T) {
	opts := []sim.Options{
		{Policy: policy.MinEnergy},
		{Policy: policy.MinEnergy},
		{Policy: policy.MinEnergyEUFS},
	}
	ctxs := []*Context{NewQuick(), NewQuick()}
	sets := []*telemetry.Set{telemetry.NewSet(), telemetry.NewSet()}
	var wg sync.WaitGroup
	errs := make([]error, len(ctxs))
	for i := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Context i asks i+1 times, so the sets' counts differ.
			for range i + 1 {
				for _, opt := range opts {
					opt.Telemetry = sets[i]
					if _, err := ctxs[i].Run(workload.DGEMM, opt); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	type counts [numCaches][2]uint64 // requests, computes
	read := func(set *telemetry.Set) (c counts) {
		for as := range numCaches {
			req, comp := cacheCounters(set, as)
			c[as] = [2]uint64{req.Value(), comp.Value()}
		}
		return c
	}
	for i, c := range ctxs {
		st := c.Stats()
		want := counts{
			modelCache: {uint64(st.ModelsTrained + st.ModelHits), uint64(st.ModelsTrained)},
			calCache:   {uint64(st.CalibrationsRun + st.CalibrationHits), uint64(st.CalibrationsRun)},
			runCache:   {uint64(st.RunsExecuted + st.RunHits), uint64(st.RunsExecuted)},
		}
		for as := range numCaches {
			if want[as][1] == 0 || want[as][0] == want[as][1] {
				t.Errorf("context %d, %s cache: %d requests, %d computes; the runs should cause both hits and misses",
					i, cacheLabels[as], want[as][0], want[as][1])
			}
		}
		if got := read(sets[i]); got != want {
			t.Errorf("context %d: set counts %v, Stats %v", i, got, want)
		}
	}

	before := [2]counts{read(sets[0]), read(sets[1])}
	runs := ctxs[0].Stats().RunsExecuted
	if _, err := ctxs[0].Run(workload.DGEMM, sim.Options{Policy: policy.MinTime}); err != nil {
		t.Fatal(err)
	}
	if ctxs[0].Stats().RunsExecuted != runs+1 {
		t.Fatal("the run without a set was not executed")
	}
	if after := [2]counts{read(sets[0]), read(sets[1])}; after != before {
		t.Errorf("a request without a set changed the sets: %v, was %v", after, before)
	}
}

// TestGenerateStress hammers one shared Context from 32 goroutines with
// overlapping experiment ids. Run under -race this exercises every
// cache layer concurrently; the Stats assertions prove singleflight
// semantics — each model, calibration and run was computed exactly
// once no matter how many goroutines requested it.
func TestGenerateStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := NewQuick()
	c.Parallel = 4
	// Cheap, overlapping SD530 experiments: they share the SD530 model,
	// several calibrations and the min_energy/min_energy_eufs runs.
	ids := []string{"table1", "table2", "table4", "fig6"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := c.Generate(ids[g%len(ids)]); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Models == 0 || st.Calibrations == 0 || st.Runs == 0 {
		t.Fatalf("caches unexpectedly empty: %+v", st)
	}
	if st.ModelsTrained != st.Models {
		t.Errorf("models trained %d times for %d cache entries", st.ModelsTrained, st.Models)
	}
	if st.CalibrationsRun != st.Calibrations {
		t.Errorf("calibrations ran %d times for %d cache entries", st.CalibrationsRun, st.Calibrations)
	}
	if st.RunsExecuted != st.Runs {
		t.Errorf("runs executed %d times for %d cache entries", st.RunsExecuted, st.Runs)
	}
}

// TestFanSplitsWorkers: Parallel bounds a table's rows and their runs'
// nodes together. A lone run keeps every worker for its nodes; rows
// that leave workers spare hand each row's runs its share; rows that
// fill the workers run their runs' nodes in order.
func TestFanSplitsWorkers(t *testing.T) {
	for _, tc := range []struct {
		what            string
		parallel, items int
		want            int
	}{
		{"a lone run", 4, 1, 4},
		{"each of 2 rows", 4, 2, 2},
		{"each of 13 rows", 2, 13, 1},
	} {
		c := NewQuick()
		c.Parallel = tc.parallel
		got, err := fanWorkers(c, tc.items)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range got {
			if w != tc.want {
				t.Errorf("%s at Parallel %d: row %d's runs get %d node workers, want %d", tc.what, tc.parallel, i, w, tc.want)
			}
		}
	}
}

// TestFlightCollidingKeysStayApart: with every key's digest the same,
// all entries share one chain, and still each key gets its own entry,
// computed once however many goroutines ask at once. A hit allocates
// nothing, on the colliding chain and on a run cache keyed by the
// default digest.
func TestFlightCollidingKeysStayApart(t *testing.T) {
	f := flight[string, string]{digest: func(string) uint64 { return 7 }}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var calls [8]atomic.Int32
	var wg sync.WaitGroup
	for g := range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % len(keys)
			v, err := f.do(nil, runCache, keys[k], func() (string, error) {
				calls[k].Add(1)
				return keys[k] + "!", nil
			})
			if err != nil || v != keys[k]+"!" {
				t.Errorf("key %s: %q, %v", keys[k], v, err)
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %s computed %d times, want 1", keys[k], n)
		}
	}
	if f.len() != len(keys) || len(f.heads) != 1 {
		t.Fatalf("%d entries under %d digests, want %d under 1", f.len(), len(f.heads), len(keys))
	}

	never := func() (string, error) { t.Error("a cached key was computed again"); return "", nil }
	if n := testing.AllocsPerRun(100, func() { _, _ = f.do(nil, runCache, "a", never) }); n != 0 {
		t.Errorf("a hit at the chain's end allocates %v times", n)
	}
	var runs flight[runKey, sim.Result]
	key := keyOf(1, minEnergyNGU(3), 3)
	result := func() (sim.Result, error) { return sim.Result{Workload: "w"}, nil }
	_, _ = runs.do(nil, runCache, key, result)
	if n := testing.AllocsPerRun(100, func() { _, _ = runs.do(nil, runCache, key, result) }); n != 0 {
		t.Errorf("a run cache hit allocates %v times", n)
	}
}
