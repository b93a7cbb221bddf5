package experiments

import (
	"errors"
	"sync"
	"testing"

	"goear/internal/telemetry"
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
			v, err := f.do(runCache, "k", func() (int, error) {
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
	f.do(runCache, "good", func() (int, error) { return 1, nil })
	f.do(runCache, "bad", func() (int, error) { return 0, errTest })
	snap := f.snapshot()
	if len(snap) != 1 || snap["good"] != 1 {
		t.Fatalf("snapshot = %v, want only the good entry", snap)
	}
	// Errors are cached: a second call must not re-run the function.
	ran := false
	if _, err := f.do(runCache, "bad", func() (int, error) { ran = true; return 0, nil }); err == nil {
		t.Error("cached error lost")
	}
	if ran {
		t.Error("failed entry re-executed")
	}
}

// TestCacheActivityMirrored: what each cache counts for Stats is what
// it mirrors into its own labelled series of the global registry.
func TestCacheActivityMirrored(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	c := NewQuick()
	for _, id := range []string{"table2", "fig6"} {
		if _, err := c.Generate(id); err != nil {
			t.Fatal(err)
		}
	}
	st, m := c.Stats(), tel.Load()
	for _, k := range []struct {
		as             cache
		computes, hits int
	}{
		{modelCache, st.ModelsTrained, st.ModelHits},
		{calCache, st.CalibrationsRun, st.CalibrationHits},
		{runCache, st.RunsExecuted, st.RunHits},
	} {
		if k.computes == 0 || k.hits == 0 {
			t.Errorf("%s cache: %d computes, %d hits; the experiments should cause both", cacheLabels[k.as], k.computes, k.hits)
		}
		if got := int(m[k.as].computes.Value()); got != k.computes {
			t.Errorf("%s computes mirrored as %d, counted %d", cacheLabels[k.as], got, k.computes)
		}
		if got := int(m[k.as].requests.Value()); got != k.computes+k.hits {
			t.Errorf("%s requests mirrored as %d, counted %d", cacheLabels[k.as], got, k.computes+k.hits)
		}
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
