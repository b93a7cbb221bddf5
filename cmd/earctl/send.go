package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

// sendCmd is the node-side reporting feeder: it reads job records (the
// JSON array format eard.DB saves, as produced by earsim and the
// examples) and streams them to a running eardbd daemon through the
// buffering client — batching, retrying with backoff, and spilling to a
// local journal when the daemon is unreachable. Rerun with the same
// -journal once the daemon is back and the spilled batches are replayed
// exactly once.
//
// Against a sharded cluster, -addr lists every shard endpoint and the
// feeder routes its node to the owning shard by the same consistent
// hash ring the daemons federate over — the node lands on the same
// shard every client and the load generator would pick.
func sendCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("send", flag.ContinueOnError)
	addr := fs.String("addr", "", "eardbd TCP address, or a comma-separated shard list: the node routes to its ring owner")
	unixSock := fs.String("unix", "", "eardbd unix socket path")
	records := fs.String("records", "", "JSON record file to send (eard.DB format)")
	node := fs.String("node", "", "reporting node name (default: first record's node)")
	journalPath := fs.String("journal", "", "spill journal path for offline buffering")
	batch := fs.Int("batch", 64, "records per batch")
	attempts := fs.Int("attempts", 3, "delivery attempts per flush")
	tracesOut := fs.String("traces-out", "", "write the feed's span trace as JSON lines here ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fleet, err := parseEndpoints(*addr, *unixSock)
	if err != nil {
		return err
	}
	if *records == "" {
		return fmt.Errorf("send needs -records")
	}

	f, err := os.Open(*records)
	if err != nil {
		return err
	}
	var recs []eard.JobRecord
	derr := json.NewDecoder(f).Decode(&recs)
	cerr := f.Close()
	if derr != nil {
		return fmt.Errorf("decode %s: %w", *records, derr)
	}
	if cerr != nil {
		return cerr
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s holds no records", *records)
	}
	if *node == "" {
		*node = recs[0].Node
	}

	journal, err := eardbd.OpenJournal(*journalPath)
	if err != nil {
		return err
	}
	if n := journal.Len(); n > 0 {
		fmt.Fprintf(out, "earctl send: journal holds %d spilled batch(es) to replay\n", n)
	}
	if len(fleet.Names()) > 1 {
		// Ring placement: the same owner every reporting client and the
		// federation pick for this node.
		fmt.Fprintf(out, "earctl send: node %s routes to shard %s\n", *node, fleet.Owner(*node))
	}
	var traceBuf *trace.Buffer
	if *tracesOut != "" {
		traceBuf = trace.NewBuffer(0)
	}
	c, err := eardbd.NewClient(eardbd.ClientConfig{
		Node:         *node,
		Dial:         fleet.DialFor(*node),
		Clock:        telemetry.StartWallClock(),
		Jitter:       rand.New(rand.NewSource(1)), // one fixed backoff schedule, run after run
		BatchRecords: *batch,
		MaxAttempts:  *attempts,
		Journal:      journal,
		Trace:        traceBuf,
	})
	if err != nil {
		return err
	}

	var firstErr error
	for _, r := range recs {
		if err := c.Enqueue(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	st := c.Stats()
	fmt.Fprintf(out, "earctl send: %d enqueued, %d sent in %d batch(es), %d retries\n",
		st.Enqueued, st.RecordsSent, st.BatchesSent, st.Retries)
	if st.RecordsSpilled > 0 || journal.Len() > 0 {
		if *journalPath != "" {
			fmt.Fprintf(out, "earctl send: %d record(s) spilled to %s; rerun with the same -journal to replay\n",
				st.RecordsSpilled, *journalPath)
			if errors.Is(firstErr, eardbd.ErrUnreachable) {
				// Designed degradation: every record is durable in the
				// journal, so an unreachable daemon is not a failure here.
				firstErr = nil
			}
		} else {
			fmt.Fprintf(out, "earctl send: %d record(s) undeliverable and no -journal given; they are lost\n",
				st.RecordsSpilled)
		}
	}
	if traceBuf != nil {
		spans := traceBuf.Canonical()
		err := telemetry.Sink(*tracesOut, out, func(w io.Writer) error { return trace.WriteJSONLines(w, spans) })
		if err == nil && *tracesOut != "-" {
			fmt.Fprintf(out, "earctl send: %d span(s) written to %s\n", len(spans), *tracesOut)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
