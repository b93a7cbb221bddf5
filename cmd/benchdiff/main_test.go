package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: goear
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable1-8     	       1	  92606924 ns/op	21569040 B/op	  224938 allocs/op
BenchmarkSimSecond-8  	   12217	     82110 ns/op	   12928 B/op	      46 allocs/op
BenchmarkModelTrain-8 	     100	  11000000 ns/op
PASS
ok  	goear	37.578s
`

func i64(v int64) *int64 { return &v }

func TestParseBench(t *testing.T) {
	got, cpu, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(got), got)
	}
	sim := got["BenchmarkSimSecond"]
	if sim.NsPerOp != 82110 || sim.BytesPerOp == nil || *sim.BytesPerOp != 12928 ||
		sim.AllocsPerOp == nil || *sim.AllocsPerOp != 46 {
		t.Errorf("BenchmarkSimSecond = %+v", sim)
	}
	if mt := got["BenchmarkModelTrain"]; mt.NsPerOp != 11000000 || mt.AllocsPerOp != nil || mt.BytesPerOp != nil {
		t.Errorf("entry without -benchmem fields = %+v", mt)
	}
}

// writeBaseline commits a synthetic baseline to a temp dir and returns
// its path.
func writeBaseline(t *testing.T, benches map[string]entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	data, err := json.Marshal(snapshot{Date: "2026-01-01", Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diff(t *testing.T, baseline, bench string, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-baseline", baseline}, extra...)
	err := run(args, strings.NewReader(bench), &out)
	return out.String(), err
}

// TestInjectedRegressionFails is the harness's own acceptance test: a
// synthetic +50% allocs/op regression must make run() fail (non-zero
// exit in main), whatever the benchmark is called — and the same size
// of ns/op move on its own must not.
func TestInjectedRegressionFails(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkSimSecond": {NsPerOp: 82110, BytesPerOp: i64(12928), AllocsPerOp: i64(46)},
	})
	bench := "BenchmarkSimSecond-8 \t 100 \t 82000 ns/op \t 12928 B/op \t 69 allocs/op\n"
	out, err := diff(t, base, bench)
	if err == nil {
		t.Fatalf("synthetic regression passed; output:\n%s", out)
	}
	if !strings.Contains(err.Error(), "BenchmarkSimSecond") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out, "REGRESSION allocs/op") || !strings.Contains(out, "46->69") {
		t.Errorf("report does not flag the regression:\n%s", out)
	}

	slow := "BenchmarkSimSecond-8 \t 100 \t 123165 ns/op \t 12928 B/op \t 46 allocs/op\n"
	if out, err := diff(t, base, slow); err != nil {
		t.Errorf("a +50%% ns/op move alone failed the run: %v\n%s", err, out)
	} else if !strings.Contains(out, "+50.0%") {
		t.Errorf("ns/op delta not printed:\n%s", out)
	}
}

func TestWithinThresholdPasses(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkEarload": {NsPerOp: 11760584, BytesPerOp: i64(5000000), AllocsPerOp: i64(18481)},
	})
	bench := "BenchmarkEarload-8 \t 100 \t 16000000 ns/op \t 5200000 B/op \t 18800 allocs/op\n" // +4.0% B, +1.7% allocs
	if out, err := diff(t, base, bench); err != nil {
		t.Errorf("within-bound run failed: %v\n%s", err, out)
	}
}

func TestImprovementPasses(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkTable3": {NsPerOp: 277987896, BytesPerOp: i64(125000000), AllocsPerOp: i64(500539)},
	})
	bench := "BenchmarkTable3-8 \t 1 \t 133000000 ns/op \t 799139 B/op \t 566 allocs/op\n"
	out, err := diff(t, base, bench)
	if err != nil {
		t.Errorf("improvement failed the gate: %v", err)
	}
	if !strings.Contains(out, "500539->566") {
		t.Errorf("report does not show the improvement:\n%s", out)
	}
}

// TestUngatedRegressionPasses: a baseline entry that records no heap
// figure — one that does not repeat on an unchanged tree — is
// informational; nothing it does fails the run, and the table says so.
func TestUngatedRegressionPasses(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkFig6":  {NsPerOp: 836427347},
		"BenchmarkFig5":  {NsPerOp: 406224326, BytesPerOp: i64(491912)},
		"BenchmarkExtra": {NsPerOp: 1000, AllocsPerOp: i64(7)},
	})
	bench := "BenchmarkFig6-8 \t 1 \t 1700000000 ns/op \t 900000 B/op \t 1100 allocs/op\n" +
		"BenchmarkFig5-8 \t 1 \t 400000000 ns/op \t 480000 B/op \t 9999 allocs/op\n"
	out, err := diff(t, base, bench)
	if err != nil {
		t.Errorf("ungated figures failed the run: %v\n%s", err, out)
	}
	for _, want := range []string{"not gated", "allocs/op not gated", "BenchmarkExtra", "missing from input"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestBoundsAreConstants pins the gate at BENCHMARK.json's bounds — 2 %
// on allocs/op, 5 % on B/op, a recorded zero gating at zero — and the
// absence of any flag to move them or to pick what is gated.
func TestBoundsAreConstants(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkFig7":     {NsPerOp: 1000, BytesPerOp: i64(100000), AllocsPerOp: i64(1000)},
		"BenchmarkNodeTick": {NsPerOp: 433.3, BytesPerOp: i64(0), AllocsPerOp: i64(0)},
	})
	for _, tc := range []struct {
		bench string
		fails bool
	}{
		{"BenchmarkFig7 \t 10 \t 1000 ns/op \t 100000 B/op \t 1020 allocs/op\n", false}, // +2.0%
		{"BenchmarkFig7 \t 10 \t 1000 ns/op \t 100000 B/op \t 1021 allocs/op\n", true},  // +2.1%
		{"BenchmarkFig7 \t 10 \t 1000 ns/op \t 105000 B/op \t 1000 allocs/op\n", false}, // +5.0%
		{"BenchmarkFig7 \t 10 \t 1000 ns/op \t 105100 B/op \t 1000 allocs/op\n", true},  // +5.1%
		{"BenchmarkNodeTick \t 10 \t 900 ns/op \t 0 B/op \t 0 allocs/op\n", false},
		{"BenchmarkNodeTick \t 10 \t 400 ns/op \t 16 B/op \t 1 allocs/op\n", true},
	} {
		if _, err := diff(t, base, tc.bench); (err != nil) != tc.fails {
			t.Errorf("%q: err = %v, want failure %v", tc.bench, err, tc.fails)
		}
	}
	for _, flag := range []string{"-threshold", "-gate"} {
		if _, err := diff(t, base, "BenchmarkFig7 \t 10 \t 1000 ns/op\n", flag, "0.5"); err == nil {
			t.Errorf("%s is still accepted", flag)
		}
	}
}

// TestTrajectoryEmit verifies -out writes a loadable snapshot carrying
// the parsed entries and the requested date stamp.
func TestTrajectoryEmit(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkSimSecond": {NsPerOp: 82110, AllocsPerOp: i64(46)},
	})
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_2026-08-06.json")
	bench := "BenchmarkSimSecond-8 \t 100 \t 42105 ns/op \t 944 B/op \t 4 allocs/op\n"
	if _, err := diff(t, base, bench, "-out", outPath, "-date", "2026-08-06", "-label", "post-opt"); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Date != "2026-08-06" || snap.Label != "post-opt" {
		t.Errorf("snapshot stamps = (%q, %q)", snap.Date, snap.Label)
	}
	e := snap.Benchmarks["BenchmarkSimSecond"]
	if e.NsPerOp != 42105 || e.AllocsPerOp == nil || *e.AllocsPerOp != 4 {
		t.Errorf("snapshot entry = %+v", e)
	}
}

// TestAutoSnapshotFreshDate verifies '-out auto' takes the plain dated
// name when no snapshot from that day exists.
func TestAutoSnapshotFreshDate(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkSimSecond": {NsPerOp: 82110},
	})
	t.Chdir(t.TempDir())
	bench := "BenchmarkSimSecond-8 \t 100 \t 82000 ns/op\n"
	out, err := diff(t, base, bench, "-out", "auto", "-date", "2026-08-06")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote BENCH_2026-08-06.json") {
		t.Errorf("auto emit output = %q", out)
	}
	if _, err := loadSnapshot("BENCH_2026-08-06.json"); err != nil {
		t.Fatal(err)
	}
}

// TestAutoSnapshotSuffix verifies repeated same-day '-out auto' runs
// append -N suffixes instead of silently overwriting the earlier
// snapshot.
func TestAutoSnapshotSuffix(t *testing.T) {
	base := writeBaseline(t, map[string]entry{
		"BenchmarkSimSecond": {NsPerOp: 82110},
	})
	t.Chdir(t.TempDir())
	bench := "BenchmarkSimSecond-8 \t 100 \t 82000 ns/op\n"
	for i, wantFile := range []string{
		"BENCH_2026-08-06.json", "BENCH_2026-08-06-1.json", "BENCH_2026-08-06-2.json",
	} {
		label := fmt.Sprintf("run-%d", i)
		if _, err := diff(t, base, bench, "-out", "auto", "-date", "2026-08-06", "-label", label); err != nil {
			t.Fatal(err)
		}
		snap, err := loadSnapshot(wantFile)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if snap.Label != label {
			t.Errorf("%s label = %q, want %q", wantFile, snap.Label, label)
		}
	}
	// The first snapshot survived untouched.
	first, err := loadSnapshot("BENCH_2026-08-06.json")
	if err != nil {
		t.Fatal(err)
	}
	if first.Label != "run-0" {
		t.Errorf("first snapshot was overwritten: label = %q", first.Label)
	}
}

func TestMissingBaselineFile(t *testing.T) {
	if _, err := diff(t, filepath.Join(t.TempDir(), "nope.json"), sampleBench); err == nil {
		t.Error("missing baseline file did not error")
	}
}
