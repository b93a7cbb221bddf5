package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/loadgen"
)

// maxFrame lets a shard's whole record dump ride one result frame when
// the root merges; the 1 MiB wire default is sized for batches only.
const maxFrame = 256 << 20

// clients is the closed-loop client count of every fleet workload: one
// per CPU this benchmark pins (GOMAXPROCS 2).
const clients = 2

// fleetInput is the pre-generated traffic of a node fleet: everything
// the reporters will send, built in set-up so the timed region holds
// no input generation.
type fleetInput struct {
	seed  int64
	names []string
	recs  [][]eard.JobRecord
	acct  [][]accounting.Record
	total int // records of both kinds
}

// genFleetInput derives every node's job records and accounting
// windows from the seed through the load generator's own streams, so
// the content is what earload would send.
func genFleetInput(seed int64, nodes, recsPerNode, acctPerNode int) (*fleetInput, error) {
	gen, err := loadgen.New(loadgen.Config{
		Nodes: nodes, RecordsPerNode: recsPerNode, AcctPerNode: acctPerNode, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &fleetInput{
		seed:  seed,
		names: make([]string, nodes),
		recs:  make([][]eard.JobRecord, nodes),
		acct:  make([][]accounting.Record, nodes),
	}
	for i := 0; i < nodes; i++ {
		in.names[i] = loadgen.NodeName(i)
		in.recs[i] = gen.Records(i)
		if in.acct[i], err = gen.AcctRecords(i); err != nil {
			return nil, err
		}
		in.total += len(in.recs[i]) + len(in.acct[i])
	}
	return in, nil
}

// dialer routes a node to its shard, as loadgen.Cluster.DialFor does.
type dialer func(node string) func() (net.Conn, error)

// sendResult sums what the reporters observed.
type sendResult struct {
	stats    eardbd.ClientStats
	latUS    []float64 // batch write→ack round trips
	nodeErrs int
}

// add sums the counters the harness reads; the rest of ClientStats is
// not reported.
func (r *sendResult) add(s eardbd.ClientStats) {
	r.stats.BatchesSent += s.BatchesSent
	r.stats.RecordsSent += s.RecordsSent
	r.stats.Retries += s.Retries
	r.stats.BatchesSpilled += s.BatchesSpilled
	r.stats.BatchesReplayed += s.BatchesReplayed
}

func (r *sendResult) merge(o sendResult) {
	r.add(o.stats)
	r.latUS = append(r.latUS, o.latUS...)
	r.nodeErrs += o.nodeErrs
}

// reporter builds one node's client the way loadgen does: fake clock
// (backoff never sleeps), seeded jitter, wall-clock RTT probe.
func (in *fleetInput) reporter(i int, dial dialer, batch int, j *eardbd.Journal, base time.Time, lat *[]float64) (*eardbd.Client, error) {
	return eardbd.NewClient(eardbd.ClientConfig{
		Node:            in.names[i],
		Dial:            dial(in.names[i]),
		Clock:           eardbd.NewFakeClock(0),
		Jitter:          rand.New(rand.NewSource(in.seed ^ int64(7919*i+1))),
		BatchRecords:    batch,
		MaxFramePayload: maxFrame,
		Journal:         j,
		RTTNow:          func() float64 { return time.Since(base).Seconds() },
		OnBatchRTT:      func(sec float64) { *lat = append(*lat, sec*1e6) },
	})
}

// survivable reports whether a client error left the records safe in
// the journal (an unreachable shard is an outcome, not a failure).
func survivable(err error) bool { return err == nil || errors.Is(err, eardbd.ErrUnreachable) }

// send drives every node's traffic through a real client: workers
// closed-loop goroutines each take the next node, enqueue its records
// (each full batch waits for its ack) and close. journals[i] is node
// i's spill journal.
func (in *fleetInput) send(dial dialer, batch, workers int, journals []*eardbd.Journal, tr *tracer, parent int) (sendResult, error) {
	base := time.Now()
	var next atomic.Int64
	results := make([]sendResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.latUS = make([]float64, 0, in.total/(batch*workers)+len(in.names))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.names) {
					return
				}
				nsp := tr.start("node", parent)
				c, err := in.reporter(i, dial, batch, journals[i], base, &res.latUS)
				if err != nil {
					errs[w] = err
					return
				}
				bad := false
				esp := tr.start("client.enqueue", nsp)
				for _, r := range in.recs[i] {
					if !survivable(c.Enqueue(r)) {
						bad = true
					}
				}
				for _, r := range in.acct[i] {
					if !survivable(c.EnqueueAcct(r)) {
						bad = true
					}
				}
				tr.end(esp)
				csp := tr.start("client.close", nsp)
				if !survivable(c.Close()) {
					bad = true
				}
				tr.end(csp)
				tr.end(nsp)
				res.add(c.Stats())
				if bad {
					res.nodeErrs++
				}
			}
		}(w)
	}
	wg.Wait()
	var total sendResult
	for w := range results {
		if errs[w] != nil {
			return sendResult{}, errs[w]
		}
		total.merge(results[w])
	}
	return total, nil
}

// drain replays every non-empty journal in node order, each through a
// fresh client that resumes the node's batch sequence from the journal
// the way a restarted reporter process would.
func (in *fleetInput) drain(dial dialer, batch int, journals []*eardbd.Journal, tr *tracer, parent int) (sendResult, error) {
	base := time.Now()
	var res sendResult
	for i, j := range journals {
		if j.Len() == 0 {
			continue
		}
		sp := tr.start("client.replay", parent)
		c, err := in.reporter(i, dial, batch, j, base, &res.latUS)
		if err != nil {
			return sendResult{}, err
		}
		ferr := c.Flush()
		cerr := c.Close()
		tr.end(sp)
		if !survivable(ferr) || !survivable(cerr) {
			res.nodeErrs++
		}
		res.add(c.Stats())
	}
	return res, nil
}

// memJournals opens one memory-only spill journal per node.
func memJournals(n int) ([]*eardbd.Journal, error) {
	out := make([]*eardbd.Journal, n)
	for i := range out {
		j, err := eardbd.OpenJournal("")
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

// backlog counts batches still journaled.
func backlog(journals []*eardbd.Journal) int {
	n := 0
	for _, j := range journals {
		n += j.Len()
	}
	return n
}

// newFleet builds an in-process shard fleet whose frame cap fits a
// shard's whole record dump.
func newFleet(shards int) (*loadgen.Cluster, error) {
	c, err := loadgen.NewCluster(shards, eardbd.Config{MaxFramePayload: maxFrame})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return c, nil
}
