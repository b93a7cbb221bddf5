package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eargm"
	"goear/internal/loadgen"
)

// ingestSizes is the shape of an ingest workload.
type ingestSizes struct {
	nodes, recsPerNode, acctPerNode, batch, shards int
	// rounds is how many fleets one trial fills, one after the other:
	// the trial's work is rounds × the fleet's records while the working
	// set stays one fleet's. From the second fleet on, closing the old
	// fleet and building the next is inside the timed region.
	rounds int
}

// victim is the shard ingest-replay keeps down during the send phase.
// Node names do not depend on the seed, so ring ownership — and with it
// the spill set — is the same exact count on every run.
const victim = "shard1"

// ingest is both ingest workloads: a node fleet reporting through real
// clients into a 4-shard fleet, closed by one root aggregate and one
// EARGM interval. With replay set, one shard is down while the nodes
// send, so its share of the traffic spills and is replayed after the
// restart.
type ingest struct {
	replay bool
	seed   int64
	sz     ingestSizes

	in *fleetInput

	cluster  *loadgen.Cluster
	root     *fed.Root
	gm       *eargm.Manager
	journals []*eardbd.Journal

	last   sendResult
	ref    []byte
	sum    uint64
	trialN int
}

func (w *ingest) unit() string { return "record acked" }

func (w *ingest) describe() string {
	return fmt.Sprintf("fleets/trial=%d nodes=%d records/node=%d acct_windows/node=%d batch=%d shards=%d clients=%d journal=memory",
		w.sz.rounds, w.sz.nodes, w.sz.recsPerNode, w.sz.acctPerNode, w.sz.batch, w.sz.shards, clients)
}

func (w *ingest) setup() error {
	in, err := genFleetInput(w.seed, w.sz.nodes, w.sz.recsPerNode, w.sz.acctPerNode)
	if err != nil {
		return err
	}
	w.in = in
	return w.prepare()
}

func (w *ingest) prepare() error {
	if err := w.close(); err != nil {
		return err
	}
	var err error
	if w.cluster, err = newFleet(w.sz.shards); err != nil {
		return err
	}
	if w.root, err = w.cluster.Root(); err != nil {
		return err
	}
	if w.gm, err = eargm.New(eargm.Config{BudgetW: 300 * float64(w.sz.nodes), MaxCapPstate: 8}); err != nil {
		return err
	}
	if w.journals, err = memJournals(w.sz.nodes); err != nil {
		return err
	}
	if w.replay {
		return w.cluster.Kill(victim)
	}
	return nil
}

func (w *ingest) run(tr *tracer, parent int) (trialOut, error) {
	var out trialOut
	for r := 0; r < w.sz.rounds; r++ {
		if r > 0 {
			if err := w.prepare(); err != nil {
				return trialOut{}, err
			}
		}
		o, err := w.round(tr, parent)
		if err != nil {
			return trialOut{}, err
		}
		out.work += o.work
		out.attempted += o.attempted
		out.failed += o.failed
		out.latUS = append(out.latUS, o.latUS...)
	}
	return out, nil
}

// round fills the current fleet once and closes it with one aggregate
// and one manager interval.
func (w *ingest) round(tr *tracer, parent int) (trialOut, error) {
	res, err := w.in.send(w.cluster.DialFor, w.sz.batch, clients, w.journals, tr, parent)
	if err != nil {
		return trialOut{}, err
	}
	if w.replay {
		if err := w.cluster.Restart(victim); err != nil {
			return trialOut{}, err
		}
		d, err := w.in.drain(w.cluster.DialFor, w.sz.batch, w.journals, tr, parent)
		if err != nil {
			return trialOut{}, err
		}
		res.merge(d)
	}
	sp := tr.start("root.aggregate", parent)
	agg, err := w.root.Aggregate()
	tr.end(sp)
	if err != nil {
		return trialOut{}, err
	}
	sp = tr.start("eargm.update", parent)
	w.trialN++
	_, err = w.gm.UpdateFrom(5*float64(w.trialN), w.root)
	tr.end(sp)
	if err != nil {
		return trialOut{}, err
	}
	w.last = res
	// Failed = records never acked (rejected, dropped or still
	// journaled), nodes the root cannot see, and reporters that erred.
	failed := (w.in.total - res.stats.RecordsSent) + (w.sz.nodes - agg.Nodes) + res.nodeErrs
	return trialOut{work: res.stats.RecordsSent, attempted: w.in.total, failed: failed, latUS: res.latUS}, nil
}

// verify compares the federation snapshot byte for byte with a
// single-shard fleet fed the same records by one worker.
func (w *ingest) verify() error {
	if n := backlog(w.journals); n != 0 {
		return fmt.Errorf("%d batches still journaled after the drain", n)
	}
	if w.ref == nil {
		ref, err := referenceSnapshot(w.in, w.sz.batch)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		w.ref = ref
	}
	return compareSnapshot(w.root, w.ref, &w.sum)
}

// referenceSnapshot ingests in through one shard and one worker and
// renders the canonical snapshot.
func referenceSnapshot(in *fleetInput, batch int) ([]byte, error) {
	c, err := newFleet(1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	js, err := memJournals(len(in.names))
	if err != nil {
		return nil, err
	}
	res, err := in.send(c.DialFor, batch, 1, js, nil, 0)
	if err != nil {
		return nil, err
	}
	if res.stats.RecordsSent != in.total {
		return nil, fmt.Errorf("reference fleet acked %d of %d records", res.stats.RecordsSent, in.total)
	}
	root, err := c.Root()
	if err != nil {
		return nil, err
	}
	defer func() { _ = root.Close() }()
	return loadgen.Snapshot(root)
}

// compareSnapshot checks root's snapshot against ref and stores its
// checksum.
func compareSnapshot(root *fed.Root, ref []byte, sum *uint64) error {
	got, err := loadgen.Snapshot(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("federation snapshot (%d bytes) differs from the single-shard reference (%d bytes)", len(got), len(ref))
	}
	h := fnv.New64a()
	_, _ = h.Write(got) // hash writes cannot fail
	*sum = h.Sum64()
	return nil
}

func (w *ingest) digest() uint64 { return w.sum }

func (w *ingest) counts() map[string]float64 {
	out := clientCounts(w.last.stats)
	if st, err := w.root.MergedStats(); err == nil {
		out["server.accepted_records"] = float64(st.RecordsAccepted + st.AcctAccepted)
		out["server.duplicate_batches"] = float64(st.DuplicateBatches)
	}
	addRootCounts(out, w.root.Stats())
	return out
}

func clientCounts(s eardbd.ClientStats) map[string]float64 {
	return map[string]float64{
		"client.batches":          float64(s.BatchesSent),
		"client.retries":          float64(s.Retries),
		"client.spilled_batches":  float64(s.BatchesSpilled),
		"client.replayed_batches": float64(s.BatchesReplayed),
	}
}

func addRootCounts(out map[string]float64, s fed.Stats) {
	out["fed.cache_hits"] = float64(s.CacheHits)
	out["fed.cache_misses"] = float64(s.CacheMisses)
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		out["fed.hit_ratio"] = float64(s.CacheHits) / float64(n)
	}
}

func (w *ingest) close() error {
	if w.root != nil {
		if err := w.root.Close(); err != nil {
			return err
		}
		w.root = nil
	}
	if w.cluster != nil {
		if err := w.cluster.Close(); err != nil {
			return err
		}
		w.cluster = nil
	}
	return nil
}
