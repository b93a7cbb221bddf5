package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"goear/internal/accounting"
	"goear/internal/dynais"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/ring"
	"goear/internal/experiments"
	"goear/internal/loadgen"
	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/perf"
	"goear/internal/policy"
	"goear/internal/sim"
	"goear/internal/wire"
	"goear/internal/workload"
)

// The layer pass times calls into each module's exported functions on
// seed-derived inputs, from outside: no span or counter inside the
// program is read. Count metrics come from the workload's own trials
// and read 0 where the workload does not touch the layer.

const (
	probeReps    = 3 // calls per probe after one warm-up; the median is kept
	probeWindows = 4 // accounting windows per node of probe traffic
)

// probeSizes is how much seeded input the probes work on.
type probeSizes struct {
	nodes, recsPerNode int // ingest-side probes: seeded node traffic
	fedNodes           int // fleet behind the fed probes unless the workload brings its own
	batchNodes         int // nodes of the sim batch probes
	gmNodes            int // nodes of one EARGM update
}

// probe calls fn probeReps+1 times, discards the first call, and
// returns the median nanoseconds and heap allocations per operation,
// where every call performs ops operations.
func probe(ops int, fn func() error) (ns, allocs float64, err error) {
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for i := 0; i <= probeReps; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if i == 0 {
			continue
		}
		nss = append(nss, float64(d.Nanoseconds())/float64(ops))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(nss), median(als), nil
}

// ledger collects per-layer metrics in emission order.
type ledger struct {
	ms []metric
}

func (l *ledger) add(name string, v float64, unit string) {
	l.ms = append(l.ms, metric{name, v, unit})
}

func (l *ledger) get(name string) float64 {
	for _, m := range l.ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// countNames are the exact counts a workload's trials may report; all
// of them are emitted on every workload so the ledger has one shape.
var countNames = []struct{ name, unit string }{
	{"client.batches", "count"}, {"client.retries", "count"},
	{"client.spilled_batches", "count"}, {"client.replayed_batches", "count"},
	{"server.accepted_records", "count"}, {"server.duplicate_batches", "count"},
	{"fed.cache_hits", "count"}, {"fed.cache_misses", "count"}, {"fed.hit_ratio", "ratio"},
	{"sim.simulated_time_s", "s"}, {"sim.energy_j_mean", "J"}, {"sim.avg_imc_ghz", "GHz"},
	{"experiments.runs_executed", "count"}, {"experiments.cache_hit_ratio", "ratio"},
}

// layerLedger runs every probe and assembles the per-layer metrics of
// one -trace 1 run.
func layerLedger(w scenario, opt options, timing []metric, counts map[string]float64, trials []trialStats, traced trialStats) ([]metric, error) {
	l := &ledger{ms: append([]metric(nil), timing...)}
	batch := 32
	if in, ok := w.(*ingest); ok {
		batch = in.sz.batch
	}
	in, err := genFleetInput(opt.seed, opt.scale.probe.nodes, opt.scale.probe.recsPerNode, probeWindows)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return probeWire(l, in, batch) },
		func() error { return probeClient(l, in, batch) },
		func() error { return probeJournal(l, in, batch, opt.outDir) },
		func() error { return probeServer(l, in, batch) },
		func() error { return probeStores(l, in) },
		func() error { return probeFed(l, w, opt.seed, opt.scale.probe.fedNodes) },
		func() error { return probeGM(l, opt.scale.probe.gmNodes) },
		func() error { return probeModels(l) },
		func() error { return probeSim(l, opt.seed, opt.scale.probe.batchNodes) },
		func() error { return probeCampaign(l, w) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	for _, c := range countNames {
		l.add(c.name, counts[c.name], c.unit)
	}
	harnessMetrics(l, trials, traced)
	budget(l, w, counts, trials)
	return l.ms, nil
}

// probeBatches cuts every node's traffic into wire batches of the
// workload's batch size, IDs built the way the client builds them.
func probeBatches(in *fleetInput, batch int) (bs []wire.Batch, records int) {
	for i, node := range in.names {
		seq := uint64(0)
		recs, acct := in.recs[i], in.acct[i]
		for len(recs)+len(acct) > 0 {
			seq++
			b := wire.Batch{ID: eardbd.BatchID(node, seq), Node: node}
			n := min(batch, len(recs))
			b.Records, recs = recs[:n], recs[n:]
			m := min(batch-n, len(acct))
			b.Acct, acct = acct[:m], acct[m:]
			bs = append(bs, b)
			records += n + m
		}
	}
	return bs, records
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// encodeAll renders every batch as one wire frame.
func encodeAll(bs []wire.Batch) ([][]byte, error) {
	out := make([][]byte, len(bs))
	for i, b := range bs {
		f, err := wire.EncodeBatch(b)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f, maxFrame); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

func probeWire(l *ledger, in *fleetInput, batch int) error {
	bs, records := probeBatches(in, batch)
	var cw countingWriter
	encNS, encAllocs, err := probe(records, func() error {
		cw.n = 0
		for _, b := range bs {
			f, err := wire.EncodeBatch(b)
			if err != nil {
				return err
			}
			if err := wire.WriteFrame(&cw, f, maxFrame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	frames, err := encodeAll(bs)
	if err != nil {
		return err
	}
	decNS, decAllocs, err := probe(records, func() error {
		for _, raw := range frames {
			f, err := wire.ReadFrame(bytes.NewReader(raw), maxFrame)
			if err != nil {
				return err
			}
			if _, err := f.AsBatch(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("wire.encode_ns_per_record", encNS, "ns")
	l.add("wire.decode_ns_per_record", decNS, "ns")
	l.add("wire.allocs_per_record", encAllocs+decAllocs, "allocs")
	l.add("wire.bytes_per_record", float64(cw.n)/float64(records), "B")
	return nil
}

// stubAcker answers every batch frame on conn with an ack and
// accumulates the time it spent decoding the batch ID and encoding the
// ack, which the client probe subtracts.
func stubAcker(conn net.Conn, busy *time.Duration, done chan<- struct{}) {
	defer close(done)
	for {
		f, err := wire.ReadFrame(conn, maxFrame)
		if err != nil {
			return
		}
		t0 := time.Now()
		b, err := f.AsBatch()
		if err != nil {
			return
		}
		ack, err := wire.EncodeAck(wire.Ack{BatchID: b.ID, Accepted: len(b.Records) + len(b.Acct)})
		if err != nil {
			return
		}
		*busy += time.Since(t0)
		if err := wire.WriteFrame(conn, ack, maxFrame); err != nil {
			return
		}
	}
}

func probeClient(l *ledger, in *fleetInput, batch int) error {
	js, err := memJournals(len(in.names))
	if err != nil {
		return err
	}
	var stub time.Duration
	var dones []chan struct{}
	dial := func(string) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			client, server := net.Pipe()
			done := make(chan struct{})
			dones = append(dones, done)
			go stubAcker(server, &stub, done)
			return client, nil
		}
	}
	var nss, als []float64
	for i := 0; i <= probeReps; i++ {
		stub, dones = 0, dones[:0]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := in.send(dial, batch, 1, js, nil, 0)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		for _, done := range dones {
			<-done // the stub's busy time is final once its goroutine ended
		}
		runtime.ReadMemStats(&m1)
		if res.stats.RecordsSent != in.total {
			return fmt.Errorf("client probe: stub acked %d of %d records", res.stats.RecordsSent, in.total)
		}
		if i == 0 {
			continue
		}
		nss = append(nss, float64((d-stub).Nanoseconds())/float64(in.total))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(in.total))
	}
	l.add("client.ns_per_record", median(nss), "ns")
	l.add("client.allocs_per_record", median(als), "allocs")
	return nil
}

func probeJournal(l *ledger, in *fleetInput, batch int, outDir string) error {
	bs, _ := probeBatches(in, batch)
	if len(bs) > 32 {
		bs = bs[:32] // every append and remove is an fsync
	}
	records := 0
	for _, b := range bs {
		records += len(b.Records) + len(b.Acct)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	path := filepath.Join(dir, "spill.journal")
	var appendNS, reloadNS, removeNS []float64
	size := int64(0)
	for i := 0; i <= probeReps; i++ {
		j, err := eardbd.OpenJournal(path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, b := range bs {
			if err := j.Append(b); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
		j2, err := eardbd.OpenJournal(path)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if j2.Len() != len(bs) {
			return fmt.Errorf("journal probe: reloaded %d of %d batches", j2.Len(), len(bs))
		}
		t3 := time.Now()
		for _, b := range bs {
			if err := j2.Remove(b.ID); err != nil {
				return err
			}
		}
		t4 := time.Now()
		if i == 0 {
			continue
		}
		n := float64(len(bs))
		appendNS = append(appendNS, float64(t1.Sub(t0).Nanoseconds())/n)
		reloadNS = append(reloadNS, float64(t2.Sub(t1).Nanoseconds())/n)
		removeNS = append(removeNS, float64(t4.Sub(t3).Nanoseconds())/n)
	}
	l.add("journal.append_ns_per_batch", median(appendNS), "ns")
	l.add("journal.remove_ns_per_batch", median(removeNS), "ns")
	l.add("journal.reload_ns_per_batch", median(reloadNS), "ns")
	l.add("journal.bytes_per_record", float64(size)/float64(records), "B")
	return nil
}

// serveFrames writes pre-encoded batch frames to a server connection
// one at a time, waiting for each ack.
func serveFrames(srv *eardbd.Server, frames [][]byte) error {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(server); close(done) }()
	defer func() { _ = client.Close(); <-done }()
	for _, raw := range frames {
		if _, err := client.Write(raw); err != nil {
			return err
		}
		f, err := wire.ReadFrame(client, maxFrame)
		if err != nil {
			return err
		}
		if f.Type != wire.TypeAck {
			return fmt.Errorf("server probe: %s frame in reply to a batch", f.Type)
		}
	}
	return nil
}

func probeServer(l *ledger, in *fleetInput, batch int) error {
	bs, records := probeBatches(in, batch)
	frames, err := encodeAll(bs)
	if err != nil {
		return err
	}
	var srv *eardbd.Server
	ns, allocs, err := probe(records, func() error {
		srv = eardbd.NewServer(eard.NewDB(), eardbd.Config{MaxFramePayload: maxFrame})
		return serveFrames(srv, frames)
	})
	if err != nil {
		return err
	}
	// The last server has seen every batch ID: resending is the
	// duplicate-batch path (decode, window lookup, ack).
	dupNS, _, err := probe(len(frames), func() error { return serveFrames(srv, frames) })
	if err != nil {
		return err
	}
	if st := srv.Stats(); st.RecordsAccepted+st.AcctAccepted != records || st.DuplicateBatches == 0 {
		return fmt.Errorf("server probe: accepted %d of %d records, %d duplicate batches",
			st.RecordsAccepted+st.AcctAccepted, records, st.DuplicateBatches)
	}
	l.add("server.batch_ns_per_record", ns, "ns")
	l.add("server.dup_batch_ns_per_batch", dupNS, "ns")
	l.add("server.allocs_per_record", allocs, "allocs")
	return nil
}

func probeStores(l *ledger, in *fleetInput) error {
	var recs []eard.JobRecord
	var acct []accounting.Record
	for i := range in.names {
		recs = append(recs, in.recs[i]...)
		acct = append(acct, in.acct[i]...)
	}
	var db *eard.DB
	insNS, _, err := probe(len(recs), func() error {
		db = eard.NewDB()
		for _, r := range recs {
			if err := db.Insert(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dumpNS, _, err := probe(len(recs), func() error {
		if n := len(db.Records()); n != len(recs) {
			return fmt.Errorf("store probe: dumped %d of %d records", n, len(recs))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("store.insert_ns_per_record", insNS, "ns")
	l.add("store.dump_ns_per_record", dumpNS, "ns")

	var st *accounting.Store
	aInsNS, _, err := probe(len(acct), func() error {
		st = accounting.NewStore(nil)
		for _, r := range acct {
			if _, err := st.Insert(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	const pages = 50
	pageNS, _, err := probe(pages, func() error {
		for i := 0; i < pages; i++ {
			if _, err := st.Query(accounting.Query{User: acctUsers[i%len(acctUsers)], Limit: pageLimit}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	snapNS, _, err := probe(len(acct)*10, func() error {
		for i := 0; i < 10; i++ {
			if n := len(st.Snapshot()); n != len(acct) {
				return fmt.Errorf("acct probe: snapshot holds %d of %d records", n, len(acct))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Attribution re-runs the load generator's own windows: its
	// AcctRecords is Attribute over seeded tenants.
	gen, err := loadgen.New(loadgen.Config{Nodes: len(in.names), AcctPerNode: probeWindows, Seed: in.seed})
	if err != nil {
		return err
	}
	attrNS, _, err := probe(len(in.names)*probeWindows, func() error {
		for i := range in.names {
			if _, err := gen.AcctRecords(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("acct.insert_ns_per_record", aInsNS, "ns")
	l.add("acct.query_page_ns", pageNS, "ns")
	l.add("acct.snapshot_ns_per_record", snapNS, "ns")
	l.add("acct.attribute_ns_per_window", attrNS, "ns")

	rg, err := ring.NewWithMembers(0, []string{"shard0", "shard1", "shard2", "shard3"})
	if err != nil {
		return err
	}
	const lookups = 20000
	ownNS, _, err := probe(lookups, func() error {
		for i := 0; i < lookups; i++ {
			if _, ok := rg.Owner(in.names[i%len(in.names)]); !ok {
				return fmt.Errorf("ring probe: no owner")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("ring.owner_ns", ownNS, "ns")
	return nil
}

// probeFed times the root's read paths as an admin client sees them:
// a cold acct_jobs page (the re-merge), a warm one, and node_powers.
// query-mixed brings its
// own loaded fleet, so the figures are the ones its trials paid; other
// workloads get a small seeded fleet.
func probeFed(l *ledger, w scenario, seed int64, fedNodes int) error {
	var cluster *loadgen.Cluster
	var stored int
	if q, ok := w.(*queryMixed); ok {
		cluster, stored = q.cluster, q.in.total+len(q.writers)
	} else {
		in, err := genFleetInput(seed, fedNodes, 10, 8)
		if err != nil {
			return err
		}
		c, err := newFleet(4)
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		js, err := memJournals(len(in.names))
		if err != nil {
			return err
		}
		if _, err := in.send(c.DialFor, 64, 1, js, nil, 0); err != nil {
			return err
		}
		cluster, stored = c, in.total
	}
	// Every read goes the way query-mixed's do: through a served root
	// and a decoded reply.
	page := wire.Query{Kind: wire.QueryAcctJobs, User: acctUsers[0], Limit: pageLimit}
	missNS, _, err := probe(stored, func() error {
		root, err := cluster.Root() // cold cache: the query below is a miss
		if err != nil {
			return err
		}
		defer func() { _ = root.Close() }()
		c := dialRoot(root)
		defer c.close()
		var p accounting.Page
		return c.query(page, &p)
	})
	if err != nil {
		return err
	}
	root, err := cluster.Root()
	if err != nil {
		return err
	}
	defer func() { _ = root.Close() }()
	c := dialRoot(root)
	defer c.close()
	const reads = 20
	hitNS, _, err := probe(reads, func() error {
		for i := 0; i < reads; i++ {
			var p accounting.Page
			if err := c.query(page, &p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	npNS, _, err := probe(reads, func() error {
		for i := 0; i < reads; i++ {
			var nps []wire.NodePower
			if err := c.query(wire.Query{Kind: wire.QueryNodePowers}, &nps); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("fed.merge_miss_ns_per_record", missNS, "ns")
	l.add("fed.query_hit_ns", hitNS, "ns")
	l.add("fed.node_powers_ns", npNS, "ns")
	return nil
}

func probeGM(l *ledger, gmNodes int) error {
	gm, err := newManager(gmNodes)
	if err != nil {
		return err
	}
	powers := make([]float64, gmNodes)
	for i := range powers {
		powers[i] = 250 + float64(i%40)
	}
	const intervals = 50
	now := 0.0
	ns, _, err := probe(intervals*gmNodes, func() error {
		for i := 0; i < intervals; i++ {
			now += gm.Interval()
			if _, err := gm.Update(now, powers); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("eargm.update_ns_per_node", ns, "ns")
	return nil
}

func probeModels(l *ledger) error {
	pl := workload.SD530()
	ph := perf.Phase{BaseCPI: 0.8, BytesPerInstr: 3, Overlap: 0.92, ActiveCores: 40}
	const evals = 2000
	evalNS, _, err := probe(evals, func() error {
		for i := 0; i < evals; i++ {
			if _, err := perf.Evaluate(pl.Machine, ph, perf.Operating{CoreRatio: 24, UncoreRatio: 20}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var mdl *model.Model
	trainNS, _, err := probe(1, func() error {
		var err error
		mdl, err = model.TrainForCPU(pl.Machine, pl.Power)
		return err
	})
	if err != nil {
		return err
	}
	sig := metrics.Signature{TimeSec: 10, IterTimeSec: 1, CPI: 0.8, TPI: 0.02, GBs: 40, DCPowerW: 330, VPI: 0.2, Iterations: 10}
	const preds = 20000
	predNS, _, err := probe(preds, func() error {
		for i := 0; i < preds; i++ {
			if _, err := mdl.Predict(sig, 1, 1+i%8); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	det, err := dynais.New(64)
	if err != nil {
		return err
	}
	const pushes = 100000
	pushNS, _, err := probe(pushes, func() error {
		for i := 0; i < pushes; i++ {
			det.Push(uint32(1 + i%8))
		}
		return nil
	})
	if err != nil {
		return err
	}
	calNS, _, err := probe(1, func() error {
		_, err := calibrate(1)
		return err
	})
	if err != nil {
		return err
	}
	pol, err := policy.New(clusterPolicy, policy.Config{
		Model: mdl, CPUPolicyTh: 0.05, UncPolicyTh: 0.02, HWGuided: true, UseAVX512Model: true,
		DefaultPstate:  1,
		UncoreMinRatio: pl.Machine.CPU.UncoreMinRatio,
		UncoreMaxRatio: pl.Machine.CPU.UncoreMaxRatio,
	})
	if err != nil {
		return err
	}
	const decisions = 2000
	decNS, _, err := probe(decisions, func() error {
		for i := 0; i < decisions; i++ {
			pol.Reset()
			if _, _, err := pol.Apply(policy.Inputs{Sig: sig, CurrentPstate: 1, CurrentUncoreRatio: pl.Machine.CPU.UncoreMaxRatio}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("perf.evaluate_ns", evalNS, "ns")
	l.add("model.predict_ns", predNS, "ns")
	l.add("model.train_ms", trainNS/1e6, "ms")
	l.add("dynais.push_ns", pushNS, "ns")
	l.add("workload.calibrate_ms", calNS/1e6, "ms")
	l.add("policy.decide_ns", decNS, "ns")
	return nil
}

// probeSim times the simulator's three ways of advancing a node under
// sim-cluster's own options (policy, model, tick-by-tick).
func probeSim(l *ledger, seed int64, batchNodes int) error {
	cal, err := calibrate(batchNodes)
	if err != nil {
		return err
	}
	mdl, err := model.TrainForCPU(cal.Platform.Machine, cal.Platform.Power)
	if err != nil {
		return err
	}
	opt := sim.Options{Policy: clusterPolicy, Seed: seed, Model: mdl}

	const steps = 20000
	stepNS, _, err := probe(steps, func() error {
		s, err := sim.NewStepper(cal, 0, opt)
		if err != nil {
			return err
		}
		for i := 0; i < steps && !s.Done(); i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	newBatch := func() (*sim.Batch, error) {
		b, err := sim.NewBatch(cal, opt)
		if err != nil {
			return nil, err
		}
		for id := 0; id < batchNodes; id++ {
			if _, err := b.Add(id); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	b, err := newBatch()
	if err != nil {
		return err
	}
	const ticks = 200
	tickNS, _, err := probe(ticks*batchNodes, func() error {
		for i := 0; i < ticks; i++ {
			if err := b.Tick(tickSec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.Done() {
		return fmt.Errorf("sim probe: the batch finished inside the tick probe; the figure includes idle ticks")
	}
	// A whole run, second by second: slow-path ticks (iteration
	// boundaries, signatures, policy actuation) included, which the
	// armed-state tick figure above leaves out.
	whole := max(batchNodes/4, 1)
	simulated := 0.0
	secNS, _, err := probe(1, func() error {
		wb, err := sim.NewBatch(cal, opt)
		if err != nil {
			return err
		}
		for id := 0; id < whole; id++ {
			if _, err := wb.Add(id); err != nil {
				return err
			}
		}
		for simulated = 0; !wb.Done(); simulated++ {
			if err := wb.Tick(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	secNS /= simulated * float64(whole)

	spec, err := workload.Lookup(clusterWorkload)
	if err != nil {
		return err
	}
	spec.Nodes, spec.TargetTimeSec = 1, 1.2 // one iteration ≈ one simulated second
	one, err := spec.Calibrate()
	if err != nil {
		return err
	}
	const runs = 20
	runNS, _, err := probe(runs, func() error {
		for i := 0; i < runs; i++ {
			if _, err := sim.Run(one, sim.Options{Policy: "none", Seed: seed + int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("sim.node_tick_ns", stepNS, "ns")
	l.add("sim.batch_tick_ns_per_node", tickNS, "ns")
	l.add("sim.batch_second_ns_per_node", secNS, "ns")
	l.add("sim.run_second_ns", runNS, "ns")
	return nil
}

// probeCampaign generates every experiment once, sequentially, on one
// shared run cache: the per-experiment cost the parallel campaign is
// made of. Only sim-campaign pays for it; elsewhere the figures are 0.
func probeCampaign(l *ledger, w scenario) error {
	slowestMS, sumCPU := 0.0, 0.0
	if c, ok := w.(*simCampaign); ok {
		ctx := experiments.NewFrom(c.warm)
		ctx.Parallel = 1
		for _, id := range c.ids {
			c0, t0 := cpuSeconds(), time.Now()
			if _, err := ctx.Generate(id); err != nil {
				return err
			}
			sumCPU += cpuSeconds() - c0
			if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; ms > slowestMS {
				slowestMS = ms
			}
		}
	}
	l.add("experiments.slowest_id_ms", slowestMS, "ms")
	l.add("experiments.sequential_cpu_ms", sumCPU*1e3, "ms")
	return nil
}

// harnessMetrics reports the run's own noise and overhead figures.
func harnessMetrics(l *ledger, trials []trialStats, traced trialStats) {
	var p99, walls []float64
	samples, attempted, failed := 0, 0, 0
	for _, t := range trials {
		p99 = append(p99, t.latP99US)
		samples += t.latSamples
		walls = append(walls, t.wallSec)
		attempted += t.out.attempted
		failed += t.out.failed
	}
	l.add("harness.latency_p99_us", median(p99), "us")
	l.add("harness.latency_samples", float64(samples), "count")
	l.add("harness.trial_iqr_rel", trialIQRRel(trials), "ratio")
	l.add("harness.peak_rss_mb", peakRSSMiB(), "MiB")
	l.add("harness.loadavg1", loadavg1(), "load")
	l.add("harness.trace_overhead_ratio", traced.wallSec/median(walls), "ratio")
	share := 0.0
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	l.add("harness.failed_share", share, "ratio")
}

// budget predicts the workload's CPU cost per work unit from the layer
// probes and the trial's exact counts, and reports which share of the
// measured cost that explains. The remainder is what no probe covers:
// net.Pipe hand-off, goroutine scheduling, garbage collection, and on
// the ingest workloads the root's per-(job, step) Summarize scans.
func budget(l *ledger, w scenario, counts map[string]float64, trials []trialStats) {
	var cpuNS, works []float64
	for _, t := range trials {
		cpuNS = append(cpuNS, t.cpuSec*1e9/float64(t.out.work))
		works = append(works, float64(t.out.work))
	}
	measured, work := median(cpuNS), median(works)
	predicted := 0.0
	switch s := w.(type) {
	case *ingest:
		// Per record: client side, server side, its share of its fleet's
		// one merge (every record is dumped and re-folded once) and of
		// the one EARGM interval per fleet over the node powers.
		predicted = l.get("client.ns_per_record") + l.get("server.batch_ns_per_record") +
			l.get("fed.merge_miss_ns_per_record") +
			l.get("eargm.update_ns_per_node")*float64(s.sz.nodes*s.sz.rounds)/work
	case *queryMixed:
		// Per query: 20 % node-power reads, the rest merged-state reads
		// served from cache, plus the re-merges the writes force.
		stored := float64(s.in.total + len(s.writers))
		predicted = 0.2*l.get("fed.node_powers_ns") + 0.8*l.get("fed.query_hit_ns") +
			counts["fed.cache_misses"]*stored*l.get("fed.merge_miss_ns_per_record")/work
	case *simCluster:
		// Per node-tick: a hundredth of the batch kernel's whole-run
		// node-second plus its share of one manager update per interval.
		gm, err := newManager(1)
		if err == nil {
			predicted = l.get("sim.batch_second_ns_per_node")*tickSec +
				l.get("eargm.update_ns_per_node")*tickSec/gm.Interval()
		}
	case *simCampaign:
		// Per experiment: the sequential, cache-sharing campaign's CPU.
		predicted = l.get("experiments.sequential_cpu_ms") * 1e6 / float64(len(s.ids))
	}
	share := 0.0
	if measured > 0 {
		share = predicted / measured
	}
	l.add("budget.explained_share", share, "ratio")
	l.add("budget.unattributed_share", 1-share, "ratio")
}
