package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/earconf"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/wire"
)

func capture(t *testing.T, args []string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("earctl %v: %v", args, err)
	}
	return b.String()
}

func TestUsageAndUnknown(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("expected usage error")
	}
	if err := run([]string{"bogus"}, &b); err == nil {
		t.Error("expected unknown-subcommand error")
	}
}

// TestEverySubcommandIsListed holds the two places a user learns the
// subcommands from — the usage line and the package comment — to the
// dispatch table, learn and send included.
func TestEverySubcommandIsListed(t *testing.T) {
	usage := run(nil, io.Discard).Error()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	if len(subcommands) != 14 {
		t.Errorf("%d subcommands, want 14", len(subcommands))
	}
	for _, c := range subcommands {
		if !strings.Contains(usage, c.name) {
			t.Errorf("usage line omits %s: %s", c.name, usage)
		}
		if !strings.Contains(doc, "//\tearctl "+c.name+" ") {
			t.Errorf("package comment has no line for earctl %s", c.name)
		}
	}
}

func TestWorkloadsList(t *testing.T) {
	out := capture(t, []string{"workloads"})
	for _, want := range []string{"BT-MZ.C", "HPCG", "DGEMM", "GROMACS(II)", "cpu-bound", "mem-bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("workloads output missing %q", want)
		}
	}
}

func TestPoliciesList(t *testing.T) {
	out := capture(t, []string{"policies"})
	for _, want := range []string{"min_energy", "min_energy_eufs", "min_time", "monitoring"} {
		if !strings.Contains(out, want) {
			t.Errorf("policies output missing %q", want)
		}
	}
}

func TestPstates(t *testing.T) {
	out := capture(t, []string{"pstates"})
	for _, want := range []string{"Gold 6148", "nominal", "turbo", "AVX512 licence", "2.2GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("pstates output missing %q", want)
		}
	}
	out = capture(t, []string{"pstates", "-platform", "GPUNode"})
	if !strings.Contains(out, "6142M") {
		t.Error("GPU platform not selected")
	}
	var b strings.Builder
	if err := run([]string{"pstates", "-platform", "bogus"}, &b); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestMSRDump(t *testing.T) {
	out := capture(t, []string{"msr"})
	for _, want := range []string{"MSR_UNCORE_RATIO_LIMIT", "0x620", "min 1.2GHz max 2.4GHz", "ESU 2^-14 J"} {
		if !strings.Contains(out, want) {
			t.Errorf("msr output missing %q", want)
		}
	}
}

func TestExperimentsList(t *testing.T) {
	out := capture(t, []string{"experiments"})
	for _, want := range []string{"table1", "fig7", "summary", "ablations"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments output missing %q", want)
		}
	}
}

func TestAcct(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.db")
	db := eard.NewDB()
	if err := db.Insert(eard.JobRecord{
		JobID: "j1", StepID: "0", Node: "n0", App: "HPCG",
		TimeSec: 100, EnergyJ: 30000, AvgPower: 300,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eardbd.SaveState(path, db, eardbd.Saved{}); err != nil {
		t.Fatal(err)
	}

	out := capture(t, []string{"acct", "-db", path})
	if !strings.Contains(out, "j1") || !strings.Contains(out, "HPCG") {
		t.Errorf("acct output missing record: %s", out)
	}
	var b strings.Builder
	if err := run([]string{"acct"}, &b); err == nil {
		t.Error("expected error for missing -db")
	}
	if err := run([]string{"acct", "-db", filepath.Join(dir, "missing.db")}, &b); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestConfCommand(t *testing.T) {
	out := capture(t, []string{"conf"})
	if !strings.Contains(out, "min_energy_eufs") {
		t.Errorf("default conf output:\n%s", out)
	}
	// conf's rows are the one hand-written key list: each key is a
	// Config field name.
	fields := reflect.TypeOf(earconf.Config{})
	for i := 0; i < fields.NumField(); i++ {
		if key := fields.Field(i).Name; !strings.Contains(out, key) {
			t.Errorf("conf output is missing key %s:\n%s", key, out)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ear.conf")
	if err := os.WriteFile(path, []byte("DefaultPolicy=monitoring\nClusterPowerBudgetW=4200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = capture(t, []string{"conf", "-f", path})
	if !strings.Contains(out, "monitoring") || !strings.Contains(out, "4200") {
		t.Errorf("parsed conf output:\n%s", out)
	}
	var b strings.Builder
	if err := run([]string{"conf", "-f", filepath.Join(dir, "missing")}, &b); err == nil {
		t.Error("expected error for missing file")
	}
	// NaN fails every comparison; the file is refused, not printed.
	nan := filepath.Join(dir, "nan.conf")
	if err := os.WriteFile(nan, []byte("SignatureChangeTh=NaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"conf", "-f", nan}, &b); err == nil {
		t.Error("a SignatureChangeTh of NaN was accepted")
	}
	// A zero threshold once printed 0.000 while runs used the default.
	zero := filepath.Join(dir, "zero.conf")
	if err := os.WriteFile(zero, []byte("DefaultCPUPolicyTh=0\nDefaultUncPolicyTh=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"conf", "-f", zero}, &b); err == nil || !strings.Contains(err.Error(), "DefaultCPUPolicyTh") {
		t.Errorf("zero thresholds: got %v, want an error naming DefaultCPUPolicyTh", err)
	}
}

func TestReportCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.db")
	db := eard.NewDB()
	for i, app := range []string{"HPCG", "BT-MZ"} {
		if err := db.Insert(eard.JobRecord{
			JobID: "j" + string(rune('1'+i)), StepID: "0", Node: "n0",
			App: app, Policy: "min_energy_eufs", TimeSec: 100, EnergyJ: 30000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eardbd.SaveState(path, db, eardbd.Saved{}); err != nil {
		t.Fatal(err)
	}
	out := capture(t, []string{"report", "-db", path})
	for _, want := range []string{"energy by application", "energy by policy", "HPCG", "min_energy_eufs"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	var b strings.Builder
	if err := run([]string{"report"}, &b); err == nil {
		t.Error("expected error for missing -db")
	}
}

// acctRec builds one job accounting record for node with the given
// package energy.
func acctRec(t *testing.T, node string, pkgJ float64) accounting.Record {
	t.Helper()
	r, err := accounting.NewRecord(
		accounting.Meta{JobID: "j1", StepID: "0", User: "alice"},
		accounting.Window{Node: node, EndSec: 100},
		accounting.Energy{PkgJ: pkgJ, NodeJ: 2 * pkgJ},
		accounting.Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sendBatch delivers one batch to addr and requires its ack.
func sendBatch(t *testing.T, addr string, b wire.Batch) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := wire.EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.ReadFrame(conn, 0); err != nil || resp.Type != wire.TypeAck {
		t.Fatalf("batch %s not acked: %v %v", b.ID, resp.Type, err)
	}
}

// wantStatsRows asserts counter rows of a rendered `dbd stats` table.
func wantStatsRows(t *testing.T, out string, rows map[string]int) {
	t.Helper()
	for name, want := range rows {
		m := regexp.MustCompile(`(?m)^` + name + ` +(\d+) *$`).FindStringSubmatch(out)
		if m == nil || m[1] != strconv.Itoa(want) {
			t.Errorf("stats row %q = %v, want %d in:\n%s", name, m, want, out)
		}
	}
}

// startDBD serves an eardbd on an ephemeral TCP port, seeded through
// the wire protocol so node powers are tracked like live reports: three
// node records, and job accounting records landing once as new, once
// as an identical re-delivery and once as an update.
func startDBD(t *testing.T) string {
	t.Helper()
	_, addr := startShard(t)
	sendBatch(t, addr, wire.Batch{ID: "seed/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "lulesh", TimeSec: 100, EnergyJ: 30000, AvgPower: 300},
		{JobID: "j1", StepID: "0", Node: "n02", App: "lulesh", TimeSec: 100, EnergyJ: 31000, AvgPower: 310},
		{JobID: "j2", StepID: "0", Node: "n01", App: "hpcg", TimeSec: 50, EnergyJ: 12500, AvgPower: 250},
	}, Acct: []accounting.Record{acctRec(t, "n01", 9000), acctRec(t, "n02", 9100)}})
	sendBatch(t, addr, wire.Batch{ID: "seed/2", Node: "n01",
		Acct: []accounting.Record{acctRec(t, "n01", 9000), acctRec(t, "n02", 9500)}})
	return addr
}

func TestDbdQueries(t *testing.T) {
	addr := startDBD(t)

	// Last report per node wins: n01 250 W (j2) + n02 310 W.
	out := capture(t, []string{"dbd", "-addr", addr, "aggregate"})
	if !strings.Contains(out, "cluster aggregate") || !strings.Contains(out, "560.0") {
		t.Errorf("aggregate output = %q", out)
	}
	out = capture(t, []string{"dbd", "-addr", addr, "jobs"})
	if !strings.Contains(out, "j1") || !strings.Contains(out, "j2") {
		t.Errorf("jobs output = %q", out)
	}
	out = capture(t, []string{"dbd", "-addr", addr, "-job", "j1", "-step", "0", "summary"})
	if !strings.Contains(out, "j1") || !strings.Contains(out, "61000") || !strings.Contains(out, "305.00") {
		t.Errorf("summary output = %q", out)
	}
	out = capture(t, []string{"dbd", "-addr", addr, "stats"})
	if !strings.Contains(out, "eardbd activity") || !strings.Contains(out, "queries") {
		t.Errorf("stats output = %q", out)
	}
	wantStatsRows(t, out, map[string]int{
		"records accepted": 3, "acct accepted": 2, "acct duplicate": 1, "acct replaced": 1,
	})
}

// TestParseEndpoints pins the dbd target-flag grammar: one unix
// socket, one TCP endpoint, or a comma-separated shard list.
func TestParseEndpoints(t *testing.T) {
	// A real socket behind the -unix case: the fleet must reach it as a
	// unix socket, not as a TCP address.
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cases := []struct {
		name        string
		addr, unix  string
		wantTargets []string
		wantErr     bool
	}{
		{name: "single tcp", addr: "127.0.0.1:4711", wantTargets: []string{"127.0.0.1:4711"}},
		{name: "two shards", addr: "a:1,b:2", wantTargets: []string{"a:1", "b:2"}},
		{name: "spaces and trailing comma", addr: " a:1 , b:2 ,", wantTargets: []string{"a:1", "b:2"}},
		{name: "unix socket", unix: sock, wantTargets: []string{sock}},
		{name: "neither", wantErr: true},
		{name: "both", addr: "a:1", unix: "/sock", wantErr: true},
		{name: "only commas", addr: ",,", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet, err := parseEndpoints(tc.addr, tc.unix)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseEndpoints(%q, %q) accepted", tc.addr, tc.unix)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			targets := fleet.Names()
			if len(targets) != len(tc.wantTargets) {
				t.Fatalf("targets = %v, want %v", targets, tc.wantTargets)
			}
			for i := range targets {
				if targets[i] != tc.wantTargets[i] {
					t.Errorf("targets[%d] = %q, want %q", i, targets[i], tc.wantTargets[i])
				}
			}
			if tc.unix != "" {
				conn, err := fleet.Dial(tc.unix)
				if err != nil {
					t.Fatalf("dial the unix socket: %v", err)
				}
				conn.Close()
			}
		})
	}
}

// TestDbdFederatedQuery points dbd at two shard daemons at once: the
// in-process federation root must merge their snapshots into the
// cluster view.
func TestDbdFederatedQuery(t *testing.T) {
	addr1 := startDBD(t) // n01 250 W + n02 310 W
	_, addr2 := startShard(t)
	sendBatch(t, addr2, wire.Batch{ID: "seed2/1", Node: "n03", Records: []eard.JobRecord{
		{JobID: "j3", StepID: "0", Node: "n03", App: "lulesh", TimeSec: 100, EnergyJ: 40000, AvgPower: 400},
	}, Acct: []accounting.Record{acctRec(t, "n03", 9900)}})

	both := addr1 + "," + addr2
	// 250 + 310 + 400 W across three nodes.
	out := capture(t, []string{"dbd", "-addr", both, "aggregate"})
	if !strings.Contains(out, "960.0") || !strings.Contains(out, "3") {
		t.Errorf("federated aggregate output = %q", out)
	}
	out = capture(t, []string{"dbd", "-addr", both, "jobs"})
	for _, want := range []string{"j1", "j2", "j3"} {
		if !strings.Contains(out, want) {
			t.Errorf("federated jobs output missing %q: %q", want, out)
		}
	}
	// The shard list sums both daemons' ingest counters.
	wantStatsRows(t, capture(t, []string{"dbd", "-addr", both, "stats"}), map[string]int{
		"records accepted": 4, "acct accepted": 3, "acct duplicate": 1, "acct replaced": 1,
	})
}

func TestDbdErrors(t *testing.T) {
	addr := startDBD(t)
	var b strings.Builder
	for _, args := range [][]string{
		{"dbd", "aggregate"},                              // no target
		{"dbd", "-addr", addr, "-unix", "x", "aggregate"}, // both targets
		{"dbd", "-addr", addr},                            // no query kind
		{"dbd", "-addr", addr, "bogus"},                   // unknown kind
		{"dbd", "-addr", addr, "summary"},                 // summary without -job
	} {
		if err := run(args, &b); err == nil {
			t.Errorf("earctl %v accepted", args)
		}
	}
	if err := run([]string{"dbd", "-addr", "127.0.0.1:1", "stats"}, &b); err == nil {
		t.Error("dial to dead daemon accepted")
	}
}
