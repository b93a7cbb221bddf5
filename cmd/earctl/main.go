// Command earctl inspects the simulated platform the way EAR's admin
// tools inspect real nodes: the workload catalogue, the registered
// policy plugins, the pstate tables, the boot-time MSR state of a
// socket, and an accounting database — and runs the two admin jobs
// that act on it: the learning phase and the node-side report feeder.
//
// Subcommands:
//
//	earctl workloads          list the workload catalogue
//	earctl policies           list registered energy policies
//	earctl pstates [-platform SD530|CascadeLake|GPUNode]
//	earctl msr     [-platform SD530|CascadeLake|GPUNode]
//	earctl learn   [-platform P] [-o model.json]  train the energy model (for earsim -model)
//	earctl experiments        list reproducible paper experiments
//	earctl acct -db jobs.db   list accounting records
//	earctl conf [-f ear.conf]  show the effective site configuration
//	earctl report -db jobs.db per-application and per-policy energy report
//	earctl dbd -addr host:port[,host:port...] <stats|aggregate|jobs|summary> query a live eardbd or a shard fleet
//	earctl jobs -addr host:port[,host:port...] [-user u] [-job j] [-since s] list per-job energy records
//	earctl metrics -addr host:port  scrape a daemon's telemetry endpoint
//	earctl trace -addr host:port [-trace id] [-kind prefix] [-since seq]  fetch a daemon's span traces
//	earctl send -addr host:port[,host:port...] -records jobs.db [-node n] [-journal f]  feed records to eardbd
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	"goear/internal/accounting"
	"goear/internal/cpu"
	"goear/internal/earconf"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eardbd/ring"
	"goear/internal/experiments"
	"goear/internal/msr"
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
	"goear/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "earctl:", err)
		os.Exit(1)
	}
}

// subcommands is the dispatch table, in usage order.
var subcommands = []struct {
	name string
	run  func(args []string, out io.Writer) error
}{
	{"workloads", func(_ []string, out io.Writer) error { return workloads(out) }},
	{"policies", func(_ []string, out io.Writer) error { return printLines(out, policy.Names()) }},
	{"pstates", pstates},
	{"msr", msrDump},
	{"learn", learnCmd},
	{"experiments", func(_ []string, out io.Writer) error { return printLines(out, experiments.IDs()) }},
	{"acct", acct},
	{"conf", confCmd},
	{"report", reportCmd},
	{"dbd", dbdCmd},
	{"jobs", jobsCmd},
	{"metrics", metricsCmd},
	{"trace", traceCmd},
	{"send", sendCmd},
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		names := make([]string, len(subcommands))
		for i, c := range subcommands {
			names[i] = c.name
		}
		return fmt.Errorf("usage: earctl <%s> [flags]", strings.Join(names, "|"))
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func printLines(out io.Writer, lines []string) error {
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	return nil
}

func workloads(out io.Writer) error {
	t := report.Table{
		Columns: []string{"name", "class", "model", "nodes", "cores/node",
			"time(s)", "CPI", "GB/s", "power(W)"},
	}
	for _, s := range workload.Catalog() {
		g := s.DefaultSegment
		if len(s.Segments) > 0 {
			g = s.Segments[0]
		}
		if err := t.AddRow(s.Name, string(s.Class), s.ProgModel,
			fmt.Sprint(s.Nodes), fmt.Sprint(s.ActiveCores),
			report.F(s.TargetTimeSec, 0), report.F(g.TargetCPI, 2),
			report.F(g.TargetGBs, 2), report.F(g.TargetPowerW, 0)); err != nil {
			return err
		}
	}
	return t.Render(out)
}

// platformFlag declares the -platform flag of pstates, msr and learn;
// its help text lists exactly the names workload.PlatformByName takes.
func platformFlag(fs *flag.FlagSet) *string {
	return fs.String("platform", "SD530", "platform name ("+strings.Join(workload.PlatformNames(), ", ")+")")
}

func pstates(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pstates", flag.ContinueOnError)
	plName := platformFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl, err := workload.PlatformByName(*plName)
	if err != nil {
		return err
	}
	m := pl.Machine.CPU
	fmt.Fprintf(out, "%s\n", m.Name)
	fmt.Fprintf(out, "sockets %d, cores/socket %d, AVX512 all-core %.1f GHz, uncore %.1f-%.1f GHz\n",
		m.Sockets, m.CoresPerSocket, float64(m.AVX512Ratio)/10,
		float64(m.UncoreMinRatio)/10, float64(m.UncoreMaxRatio)/10)
	t := report.Table{Columns: []string{"pstate", "frequency", "note"}}
	for p, f := range m.Pstates() {
		note := ""
		switch {
		case p == 0:
			note = "turbo"
		case p == 1:
			note = "nominal"
		case uint64(0) == m.AVX512Ratio-(m.NominalRatio-uint64(p-1)):
			note = "AVX512 licence"
		}
		if err := t.AddRow(fmt.Sprint(p), f.String(), note); err != nil {
			return err
		}
	}
	return t.Render(out)
}

func msrDump(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("msr", flag.ContinueOnError)
	plName := platformFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl, err := workload.PlatformByName(*plName)
	if err != nil {
		return err
	}
	s, err := cpu.NewSocket(pl.Machine.CPU, 0)
	if err != nil {
		return err
	}
	regs := []struct {
		name string
		addr uint32
	}{
		{"IA32_MPERF", msr.IA32MPerf},
		{"IA32_APERF", msr.IA32APerf},
		{"IA32_PERF_STATUS", msr.IA32PerfStatus},
		{"IA32_PERF_CTL", msr.IA32PerfCtl},
		{"IA32_ENERGY_PERF_BIAS", msr.IA32EnergyPerfBias},
		{"MSR_RAPL_POWER_UNIT", msr.MSRRaplPowerUnit},
		{"MSR_PKG_ENERGY_STATUS", msr.MSRPkgEnergyStatus},
		{"MSR_DRAM_ENERGY_STATUS", msr.MSRDramEnergyStatus},
		{"MSR_UNCORE_RATIO_LIMIT", msr.MSRUncoreRatioLimit},
		{"MSR_UNCORE_PERF_STATUS", msr.MSRUncorePerfStatus},
	}
	t := report.Table{
		Title:   "boot-time MSR state, socket 0 (" + pl.Machine.CPU.Name + ")",
		Columns: []string{"register", "address", "value", "decoded"},
	}
	for _, r := range regs {
		v, err := s.MSR.Read(r.addr)
		if err != nil {
			return err
		}
		dec := ""
		switch r.addr {
		case msr.MSRUncoreRatioLimit:
			u := msr.DecodeUncoreRatioLimit(v)
			dec = fmt.Sprintf("min %.1fGHz max %.1fGHz", float64(u.MinRatio)/10, float64(u.MaxRatio)/10)
		case msr.IA32PerfCtl, msr.IA32PerfStatus:
			dec = fmt.Sprintf("ratio %d (%.1fGHz)", msr.DecodePerfCtl(v), float64(msr.DecodePerfCtl(v))/10)
		case msr.MSRRaplPowerUnit:
			dec = fmt.Sprintf("ESU 2^-%d J", (v>>8)&0x1F)
		}
		if err := t.AddRow(r.name, fmt.Sprintf("0x%03X", r.addr),
			fmt.Sprintf("0x%016X", v), dec); err != nil {
			return err
		}
	}
	return t.Render(out)
}

func confCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("conf", flag.ContinueOnError)
	path := fs.String("f", "", "ear.conf-style file (default: built-in site defaults)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := earconf.Load(*path)
	if err != nil {
		return err
	}
	t := report.Table{Columns: []string{"key", "value"}}
	auth := "all registered policies"
	if len(c.AuthorizedPolicies) > 0 {
		auth = fmt.Sprint(c.AuthorizedPolicies)
	}
	rows := [][2]string{
		{"DefaultPolicy", c.DefaultPolicy},
		{"DefaultCPUPolicyTh", report.F(c.DefaultCPUPolicyTh, 3)},
		{"DefaultUncPolicyTh", report.F(c.DefaultUncPolicyTh, 3)},
		{"MinSignatureWindowSec", report.F(c.MinSignatureWindowSec, 1)},
		{"SignatureChangeTh", report.F(c.SignatureChangeTh, 2)},
		{"AuthorizedPolicies", auth},
		{"ClusterPowerBudgetW", report.F(c.ClusterPowerBudgetW, 0)},
	}
	for _, r := range rows {
		if err := t.AddRow(r[0], r[1]); err != nil {
			return err
		}
	}
	return t.Render(out)
}

func reportCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	dbPath := fs.String("db", "", "accounting state file (earsim -acct, eardbd -db)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("report needs -db")
	}
	db, _, err := eardbd.LoadState(*dbPath)
	if err != nil {
		return err
	}
	byApp := report.Table{
		Title:   "energy by application",
		Columns: []string{"app", "jobs", "node hours", "energy (kJ)", "avg power (W)"},
	}
	for _, a := range db.ByApp() {
		if err := byApp.AddRow(a.App, fmt.Sprint(a.Jobs), report.F(a.NodeHours, 3),
			report.F(a.EnergyKJ, 1), report.F(a.AvgPowerW, 1)); err != nil {
			return err
		}
	}
	if err := byApp.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	byPol := report.Table{
		Title:   "energy by policy",
		Columns: []string{"policy", "jobs", "node hours", "energy (kJ)", "avg power (W)"},
	}
	for _, a := range db.ByPolicy() {
		if err := byPol.AddRow(a.Policy, fmt.Sprint(a.Jobs), report.F(a.NodeHours, 3),
			report.F(a.EnergyKJ, 1), report.F(a.AvgPowerW, 1)); err != nil {
			return err
		}
	}
	return byPol.Render(out)
}

// parseEndpoints resolves the -addr/-unix target flags of dbd, jobs and
// send into the fleet they name: a unix socket path, a single TCP
// endpoint, or a comma-separated list of shard endpoints (queried
// through an in-process federation root; ring-routed by send).
func parseEndpoints(addr, unixSock string) (*fed.Fleet, error) {
	if (addr == "") == (unixSock == "") {
		return nil, fmt.Errorf("pass exactly one of -addr or -unix")
	}
	if unixSock != "" {
		return fed.NewFleet([]string{unixSock}, func(path string) (net.Conn, error) { return net.Dial("unix", path) })
	}
	targets := ring.ParseMembers(addr)
	if len(targets) == 0 {
		return nil, fmt.Errorf("-addr lists no endpoints")
	}
	return fed.NewFleet(targets, nil)
}

// dialEndpoints opens one query connection: straight to a single
// daemon, or through an in-process federation root when several shard
// endpoints are listed — the same merged view a long-running root
// serves, built on the fly. The returned cleanup closes everything.
func dialEndpoints(fleet *fed.Fleet, maxFrame int) (net.Conn, func(), error) {
	if names := fleet.Names(); len(names) == 1 {
		conn, err := fleet.Dial(names[0])
		if err != nil {
			return nil, nil, fmt.Errorf("dial eardbd: %w", err)
		}
		return conn, func() { conn.Close() }, nil
	}
	root, err := fed.NewRoot(fed.Config{Fleet: fleet, MaxFramePayload: maxFrame})
	if err != nil {
		return nil, nil, err
	}
	conn, err := root.Dial()
	if err != nil {
		return nil, nil, err
	}
	return conn, func() {
		conn.Close()
		root.Close() // waits for the connection's handler
	}, nil
}

// dbdCmd queries a running eardbd daemon over its wire protocol. When
// -addr lists several shard endpoints, the answers are merged through
// a federation root, so the rendered snapshot is the cluster view.
func dbdCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbd", flag.ContinueOnError)
	addr := fs.String("addr", "", "eardbd TCP address, or a comma-separated shard list to federate over")
	unixSock := fs.String("unix", "", "eardbd unix socket path")
	job := fs.String("job", "", "job id for the summary query")
	step := fs.String("step", "", "step id for the summary query")
	maxFrame := fs.Int("max-frame", 0, "frame payload cap in bytes (default 1 MiB; a one-frame answer, such as the job list, must fit it, while a root over -addr shards reads whole views of any size)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fleet, err := parseEndpoints(*addr, *unixSock)
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: earctl dbd -addr host:port[,host:port...] <stats|aggregate|jobs|summary>")
	}
	kind := fs.Arg(0)

	conn, cleanup, err := dialEndpoints(fleet, *maxFrame)
	if err != nil {
		return err
	}
	defer cleanup()

	// ask puts the query and decodes the answer into v.
	ask := func(q wire.Query, v any) error {
		res, err := eardbd.Query(conn, q, *maxFrame)
		if err != nil {
			return err
		}
		return res.Decode(v)
	}
	summaries := func(sums ...eard.JobSummary) error {
		t := report.Table{Columns: []string{"job", "step", "nodes", "time(s)", "energy(J)", "avg power(W)"}}
		for _, s := range sums {
			if err := t.AddRow(s.JobID, s.StepID, fmt.Sprint(s.Nodes),
				report.F(s.TimeSec, 2), report.F(s.EnergyJ, 0), report.F(s.AvgPower, 2)); err != nil {
				return err
			}
		}
		return t.Render(out)
	}
	switch kind {
	case wire.QueryStats:
		var st eardbd.Stats
		if err := ask(wire.Query{Kind: kind}, &st); err != nil {
			return err
		}
		t := report.Table{Title: "eardbd activity", Columns: []string{"counter", "value"}}
		for _, row := range [][2]string{
			{"connections", fmt.Sprint(st.Connections)},
			{"batches", fmt.Sprint(st.Batches)},
			{"duplicate batches", fmt.Sprint(st.DuplicateBatches)},
			{"records accepted", fmt.Sprint(st.RecordsAccepted)},
			{"records duplicate", fmt.Sprint(st.RecordsDuplicate)},
			{"records replaced", fmt.Sprint(st.RecordsReplaced)},
			{"acct accepted", fmt.Sprint(st.AcctAccepted)},
			{"acct duplicate", fmt.Sprint(st.AcctDuplicate)},
			{"acct replaced", fmt.Sprint(st.AcctReplaced)},
			{"batches rejected", fmt.Sprint(st.BatchesRejected)},
			{"protocol errors", fmt.Sprint(st.ProtocolErrors)},
			{"queries", fmt.Sprint(st.Queries)},
		} {
			if err := t.AddRow(row[0], row[1]); err != nil {
				return err
			}
		}
		return t.Render(out)
	case wire.QueryAggregate:
		var agg eardbd.Aggregate
		if err := ask(wire.Query{Kind: kind}, &agg); err != nil {
			return err
		}
		t := report.Table{Title: "cluster aggregate", Columns: []string{"nodes", "DC power (W)", "energy (kJ)", "records"}}
		if err := t.AddRow(fmt.Sprint(agg.Nodes), report.F(agg.TotalPowerW, 1),
			report.F(agg.TotalEnergyJ/1000, 1), fmt.Sprint(agg.Records)); err != nil {
			return err
		}
		return t.Render(out)
	case wire.QueryJobs:
		var sums []eard.JobSummary
		if err := ask(wire.Query{Kind: kind}, &sums); err != nil {
			return err
		}
		return summaries(sums...)
	case wire.QuerySummary:
		if *job == "" {
			return fmt.Errorf("summary needs -job (and usually -step)")
		}
		var s eard.JobSummary
		if err := ask(wire.Query{Kind: kind, Job: *job, Step: *step}, &s); err != nil {
			return err
		}
		return summaries(s)
	default:
		return fmt.Errorf("unknown dbd query %q (stats, aggregate, jobs, summary)", kind)
	}
}

// jobsCmd lists per-job energy accounting records from a live eardbd
// or a shard fleet (federated through an in-process root). The page a
// root serves is byte-identical to the page a single daemon holding
// the union of the shards would serve, so the rendered table is the
// same whichever way the cluster is reached.
func jobsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	addr := fs.String("addr", "", "eardbd TCP address, or a comma-separated shard list to federate over")
	unixSock := fs.String("unix", "", "eardbd unix socket path")
	user := fs.String("user", "", "filter by user")
	job := fs.String("job", "", "filter by job id")
	since := fs.Float64("since", 0, "drop records ending at or before this time (seconds)")
	limit := fs.Int("limit", 0, "page size (default 100, max 1000)")
	cursor := fs.String("cursor", "", "resume after this cursor (from a previous page)")
	all := fs.Bool("all", false, "follow cursors until the listing is exhausted")
	maxFrame := fs.Int("max-frame", 0, "frame payload cap in bytes (default 1 MiB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fleet, err := parseEndpoints(*addr, *unixSock)
	if err != nil {
		return err
	}
	conn, cleanup, err := dialEndpoints(fleet, *maxFrame)
	if err != nil {
		return err
	}
	defer cleanup()

	queryFn := func(q accounting.Query) (accounting.Page, error) {
		res, err := eardbd.Query(conn, wire.Query{
			Kind:   wire.QueryAcctJobs,
			User:   q.User,
			Job:    q.Job,
			Since:  q.Since,
			Limit:  q.Limit,
			Cursor: q.Cursor,
		}, *maxFrame)
		if err != nil {
			return accounting.Page{}, err
		}
		var p accounting.Page
		if err := res.Decode(&p); err != nil {
			return accounting.Page{}, err
		}
		return p, nil
	}

	q := accounting.Query{User: *user, Job: *job, Since: *since, Limit: *limit, Cursor: *cursor}
	var recs []accounting.Record
	var next string
	total := 0
	if *all {
		if recs, err = accounting.Walk(queryFn, q); err != nil {
			return err
		}
		total = len(recs)
	} else {
		page, err := queryFn(q)
		if err != nil {
			return err
		}
		recs, next, total = page.Records, page.Next, page.Total
	}

	t := report.Table{
		Columns: []string{"job", "step", "user", "node", "phase", "policy",
			"pkg(J)", "dram(J)", "uncore(J)", "node(J)", "cpu(GHz)", "imc(GHz)"},
	}
	for _, r := range recs {
		if err := t.AddRow(r.JobID, r.StepID, r.User, r.Node, fmt.Sprint(r.Phase), r.Policy,
			report.F(r.PkgJ, 1), report.F(r.DramJ, 1), report.F(r.UncoreJ, 1), report.F(r.NodeJ, 1),
			report.F(r.AvgCPUGHz, 2), report.F(r.AvgIMCGHz, 2)); err != nil {
			return err
		}
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d of %d records\n", len(recs), total)
	if next != "" {
		fmt.Fprintf(out, "next: -cursor %s\n", next)
	}
	return nil
}

// metricsCmd scrapes a daemon's telemetry HTTP endpoint (eardbd
// -telemetry, earsim -telemetry) and renders the snapshot.
func metricsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	addr := fs.String("addr", "", "telemetry HTTP address (host:port)")
	raw := fs.Bool("raw", false, "print the raw Prometheus exposition instead of a table")
	events := fs.Bool("events", false, "fetch the event log (/events) instead of the metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("metrics needs -addr")
	}
	path := "/metrics"
	if *events {
		path = "/events"
	}
	resp, err := http.Get("http://" + *addr + path)
	if err != nil {
		return fmt.Errorf("scrape telemetry: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape telemetry: %s returned %s", path, resp.Status)
	}
	if *events || *raw {
		_, err := io.Copy(out, resp.Body)
		return err
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return err
	}
	t := report.Table{Title: "telemetry snapshot", Columns: []string{"metric", "labels", "value"}}
	for _, s := range samples {
		labels := s.Labels
		if labels == "" {
			labels = "-"
		}
		if err := t.AddRow(s.Name, labels, strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return t.Render(out)
}

// traceCmd fetches span traces from a daemon's /traces endpoint
// (eardbd -trace) and renders them as indented trees, one per trace.
func traceCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addr := fs.String("addr", "", "telemetry HTTP address (host:port)")
	traceID := fs.String("trace", "", "only spans of this trace id (16 hex digits)")
	kind := fs.String("kind", "", "only spans whose kind has this dot-path prefix")
	since := fs.Uint64("since", 0, "only spans recorded after this sequence number (arrival order)")
	raw := fs.Bool("raw", false, "print the raw JSON lines instead of trees")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("trace needs -addr")
	}
	q := url.Values{}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	if *kind != "" {
		q.Set("kind", *kind)
	}
	if *since > 0 {
		q.Set("since", strconv.FormatUint(*since, 10))
	}
	u := "http://" + *addr + "/traces"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return fmt.Errorf("fetch traces: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch traces: /traces returned %s", resp.Status)
	}
	if d := resp.Header.Get(trace.DroppedHeader); d != "" && d != "0" {
		fmt.Fprintf(out, "warning: %s span(s) overwritten in the daemon's ring buffer\n", d)
	}
	if *raw {
		_, err := io.Copy(out, resp.Body)
		return err
	}
	var spans []trace.Span
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var s trace.Span
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("decode span: %w", err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		fmt.Fprintln(out, "no spans")
		return nil
	}
	printSpanTrees(out, spans)
	return nil
}

// printSpanTrees renders spans as one indented tree per trace, in
// input order. Spans whose parent is absent (filtered out, or still
// open server-side) render as roots.
func printSpanTrees(out io.Writer, spans []trace.Span) {
	present := map[trace.HexID]bool{}
	for _, s := range spans {
		present[s.ID] = true
	}
	kids := map[trace.HexID][]trace.Span{}
	var roots []trace.Span
	for _, s := range spans {
		if s.Parent != 0 && present[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var walk func(s trace.Span, depth int)
	walk = func(s trace.Span, depth int) {
		line := strings.Repeat("  ", depth) + s.Kind
		if s.Src != "" {
			line += " [" + s.Src + "]"
		}
		if s.End != s.Start {
			line += fmt.Sprintf(" %.3fms", (s.End-s.Start)*1e3)
		}
		attrs := append(trace.Attrs(nil), s.Attrs...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		for _, at := range attrs {
			line += " " + at.Key + "=" + at.Value
		}
		fmt.Fprintln(out, line)
		for _, c := range kids[s.ID] {
			walk(c, depth+1)
		}
	}
	last := trace.HexID(0)
	for _, r := range roots {
		if r.Trace != last {
			fmt.Fprintf(out, "trace %s\n", r.Trace)
			last = r.Trace
		}
		walk(r, 1)
	}
}

func acct(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("acct", flag.ContinueOnError)
	dbPath := fs.String("db", "", "accounting state file (earsim -acct, eardbd -db)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("acct needs -db")
	}
	db, _, err := eardbd.LoadState(*dbPath)
	if err != nil {
		return err
	}
	t := report.Table{
		Columns: []string{"job", "step", "nodes", "app", "time(s)", "energy(J)", "avg power(W)"},
	}
	for _, js := range db.Jobs() {
		s, err := db.Summarize(js[0], js[1])
		if err != nil {
			return err
		}
		app := ""
		if recs := db.Job(js[0], js[1]); len(recs) > 0 {
			app = recs[0].App
		}
		if err := t.AddRow(js[0], js[1], fmt.Sprint(s.Nodes), app,
			report.F(s.TimeSec, 2), report.F(s.EnergyJ, 0), report.F(s.AvgPower, 2)); err != nil {
			return err
		}
	}
	return t.Render(out)
}
