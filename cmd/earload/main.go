// Command earload drives cluster-scale synthetic load through the
// EARDBD reporting tier: tens of thousands of simulated node
// reporters, each a real buffering client speaking the real wire
// protocol, placed over a shard fleet by consistent hashing. By
// default the shards are in-process daemons, which enables fault
// injection — kill a shard mid-burst, restart it later, and watch the
// spill journals drain with exactly-once replay; with -addrs the same
// burst targets externally launched eardbd daemons.
//
// Ingest load and fault injection only: the compute-side campaign (a
// catalogue workload scaled to cluster size under an EARGM budget) is
// earsim -nodes N -powercap W.
//
//	earload -nodes 10000 -shards 4 -snapshot -
//	earload -nodes 2000 -shards 3 -kill shard1@500 -restart shard1@1500
//	earload -nodes 500 -addrs 127.0.0.1:4711,127.0.0.1:4712
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goear/internal/accounting"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eardbd/ring"
	"goear/internal/loadgen"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "earload:", err)
		os.Exit(1)
	}
}

// drainPasses bounds the journal drain passes after the burst.
const drainPasses = 5

// faultSpec is a parsed "<shard>@<nodes-done>" trigger.
type faultSpec struct {
	shard string
	after int64
}

// parseFaultSpec parses "<shard>@<n>": fire on shard once n node
// reporters have completed.
func parseFaultSpec(s string) (faultSpec, error) {
	at := strings.LastIndex(s, "@")
	if at <= 0 || at == len(s)-1 {
		return faultSpec{}, fmt.Errorf("fault spec %q is not <shard>@<nodes-done>", s)
	}
	n, err := strconv.ParseInt(s[at+1:], 10, 64)
	if err != nil || n < 1 {
		return faultSpec{}, fmt.Errorf("fault spec %q needs a positive node count", s)
	}
	return faultSpec{shard: s[:at], after: n}, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("earload", flag.ContinueOnError)
	nodes := fs.Int("nodes", 1000, "simulated node reporters to drive")
	records := fs.Int("records", 10, "job records per node")
	shards := fs.Int("shards", 4, "in-process shard count (ignored with -addrs)")
	addrs := fs.String("addrs", "", "comma-separated external eardbd TCP endpoints (disables in-process shards)")
	batch := fs.Int("batch", 4, "records per client batch")
	workers := fs.Int("workers", 32, "concurrent node reporters")
	acct := fs.Int("acct", 0, "per-job accounting windows per node (0 disables job traffic)")
	queries := fs.Int("queries", 0, "concurrent workers hammering the accounting query API while ingest runs")
	kill := fs.String("kill", "", "kill spec <shard>@<nodes-done> (in-process only)")
	restart := fs.String("restart", "", "restart spec <shard>@<nodes-done> (in-process only)")
	snapshotPath := fs.String("snapshot", "", "write the federation root snapshot here ('-' = stdout)")
	metrics := fs.Bool("metrics", false, "dump the telemetry registry after the run")
	traceOn := fs.Bool("trace", false, "record span traces across the burst (clients, shards and root share one buffer)")
	tracesOut := fs.String("traces-out", "", "write the canonical span export as JSON lines here ('-' = stdout); implies -trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	set := telemetry.NewSet()
	var traceBuf *trace.Buffer
	if *traceOn || *tracesOut != "" {
		// Size the ring to the burst: a delivered batch emits about
		// ten spans end to end (client pair, server tree, fan-out),
		// so this keeps every span of a full run without paying for
		// a fixed worst-case ring on small bursts.
		batches := *nodes * ((*records+*batch-1) / *batch + (*acct+*batch-1) / *batch + 1)
		cap := batches * 10
		if cap < trace.DefaultBufferCap {
			cap = trace.DefaultBufferCap
		}
		if cap > 1<<18 {
			cap = 1 << 18
		}
		traceBuf = trace.NewBuffer(cap)
	}
	// RTTs and latency histograms ride a monotonic wall clock; the
	// span tree and the workload stay deterministic regardless.
	wallSec := telemetry.StartWallClock().Now
	g, err := loadgen.New(loadgen.Config{
		Nodes:          *nodes,
		RecordsPerNode: *records,
		AcctPerNode:    *acct,
		BatchRecords:   *batch,
		Workers:        *workers,
		Seed:           1,
		Telemetry:      set,
		Trace:          traceBuf,
		RTTNow:         wallSec,
	})
	if err != nil {
		return err
	}

	// Both modes drive one fleet description and differ in what answers
	// its dial function: the external daemons over TCP, or in-process
	// shards that can be killed and restarted.
	var fleet *fed.Fleet
	hooks := loadgen.Hooks{}
	postBurst := func() {}
	if *addrs != "" {
		if *kill != "" || *restart != "" {
			return fmt.Errorf("fault injection needs in-process shards, not -addrs")
		}
		if fleet, err = fed.NewFleet(ring.ParseMembers(*addrs), nil); err != nil {
			return err
		}
	} else {
		cluster, err := loadgen.NewCluster(*shards, eardbd.Config{Telemetry: set, Trace: traceBuf})
		if err != nil {
			return err
		}
		fleet = cluster.Fleet()
		if *restart != "" && *kill == "" {
			return fmt.Errorf("-restart without -kill")
		}
		if *kill != "" {
			killSpec, err := parseFaultSpec(*kill)
			if err != nil {
				return err
			}
			restartSpec := faultSpec{shard: killSpec.shard, after: int64(*nodes) + 1}
			if *restart != "" {
				if restartSpec, err = parseFaultSpec(*restart); err != nil {
					return err
				}
				if restartSpec.after <= killSpec.after {
					return fmt.Errorf("-restart must fire after -kill (%d <= %d)", restartSpec.after, killSpec.after)
				}
			}
			var done int64
			var killing, killDone, restarted atomic.Bool
			hooks.AfterNode = func(i int) {
				n := atomic.AddInt64(&done, 1)
				if n >= killSpec.after && killing.CompareAndSwap(false, true) {
					if err := cluster.Kill(killSpec.shard); err != nil {
						fmt.Fprintln(out, "earload: kill:", err)
						return
					}
					fmt.Fprintf(out, "earload: killed %s after %d nodes\n", killSpec.shard, n)
					killDone.Store(true)
				}
				if n >= restartSpec.after && killDone.Load() && restarted.CompareAndSwap(false, true) {
					if err := cluster.Restart(restartSpec.shard); err != nil {
						fmt.Fprintln(out, "earload: restart:", err)
						return
					}
					fmt.Fprintf(out, "earload: restarted %s after %d nodes\n", restartSpec.shard, n)
				}
			}
			// The burst can end before the restart threshold; bring the
			// shard back before draining so spilled batches can land.
			postBurst = func() {
				if killDone.Load() && restarted.CompareAndSwap(false, true) {
					if err := cluster.Restart(restartSpec.shard); err != nil {
						fmt.Fprintln(out, "earload: restart:", err)
						return
					}
					fmt.Fprintf(out, "earload: restarted %s post-burst\n", restartSpec.shard)
				}
			}
		}
	}

	root := func() (*fed.Root, error) {
		return fed.NewRoot(fed.Config{Fleet: fleet, Telemetry: set, Trace: traceBuf})
	}

	// The query hammer pages the accounting API through a federation
	// root concurrently with ingest, exercising the root's view cache
	// under constant invalidation. Errors are expected around fault
	// injection (a severed shard fails the fan-out) and are counted,
	// not fatal.
	var qPages, qErrs uint64
	var qMu sync.Mutex
	var qRTTs []float64
	stopQueries := func() {}
	if *queries > 0 {
		qr, err := root()
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < *queries; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := accounting.Query{Limit: 200}
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := wallSec()
					page, err := qr.AcctQuery(q)
					if err != nil {
						atomic.AddUint64(&qErrs, 1)
						q = accounting.Query{Limit: 200}
						continue
					}
					qMu.Lock()
					qRTTs = append(qRTTs, wallSec()-t0)
					qMu.Unlock()
					atomic.AddUint64(&qPages, 1)
					if page.Next == "" {
						q = accounting.Query{Limit: 200}
					} else {
						q.Cursor = page.Next
					}
				}
			}()
		}
		stopQueries = func() {
			close(stop)
			wg.Wait()
			_ = qr.Close() // hangs up the parked shard connections; nothing is written through them
		}
	}

	res, err := g.Run(fleet.DialFor, hooks)
	if err != nil {
		stopQueries()
		return err
	}
	postBurst()
	left, err := g.Drain(fleet.DialFor, drainPasses)
	stopQueries()
	if err != nil {
		return err
	}
	st := g.Stats()
	fmt.Fprintf(out, "earload: %d nodes, %d records enqueued, %d sent in %d batches, %d spilled, %d replayed, %d retries, backlog %d\n",
		res.Nodes, res.RecordsEnqueued, st.RecordsSent, st.BatchesSent, st.BatchesSpilled, st.BatchesReplayed, st.Retries, left)
	// Client-observed round trips: the latency the reporting tier
	// actually delivered, printed and recorded as a telemetry event so
	// -metrics scrapes and event dumps carry it too.
	if n, p50, p95, p99 := g.RTTPercentiles(); n > 0 {
		fmt.Fprintf(out, "earload: batch rtt: %d acked, p50 %s, p95 %s, p99 %s\n",
			n, fmtSec(p50), fmtSec(p95), fmtSec(p99))
		set.Rec().Record(telemetry.Event{
			TimeSec: wallSec(), Kind: "earload.rtt", Src: "earload",
			Str: map[string]string{"op": "batch"},
			Num: map[string]float64{"count": float64(n), "p50_s": p50, "p95_s": p95, "p99_s": p99},
		})
	}
	if *queries > 0 {
		fmt.Fprintf(out, "earload: query hammer: %d workers, %d pages, %d errors\n",
			*queries, atomic.LoadUint64(&qPages), atomic.LoadUint64(&qErrs))
		if n, p50, p95, p99 := loadgen.Percentiles(qRTTs); n > 0 {
			fmt.Fprintf(out, "earload: query rtt: %d pages, p50 %s, p95 %s, p99 %s\n",
				n, fmtSec(p50), fmtSec(p95), fmtSec(p99))
			set.Rec().Record(telemetry.Event{
				TimeSec: wallSec(), Kind: "earload.rtt", Src: "earload",
				Str: map[string]string{"op": "query"},
				Num: map[string]float64{"count": float64(n), "p50_s": p50, "p95_s": p95, "p99_s": p99},
			})
		}
	}
	if res.NodeErrors > 0 {
		return fmt.Errorf("%d node reporters failed", res.NodeErrors)
	}

	if *snapshotPath != "" {
		r, err := root()
		if err != nil {
			return err
		}
		blob, err := loadgen.Snapshot(r)
		_ = r.Close() // a read-only root: only parked connections to hang up
		if err != nil {
			return err
		}
		if err := telemetry.Sink(*snapshotPath, out, func(w io.Writer) error {
			_, err := w.Write(append(blob, '\n'))
			return err
		}); err != nil {
			return err
		}
	}
	if *metrics {
		if err := set.Reg().WritePrometheus(out); err != nil {
			return err
		}
	}
	if traceBuf != nil {
		fmt.Fprintf(out, "earload: %d spans recorded (%d dropped)\n", traceBuf.Len(), traceBuf.Dropped())
		if err := telemetry.Sink(*tracesOut, out, func(w io.Writer) error {
			return trace.WriteJSONLines(w, traceBuf.Canonical())
		}); err != nil {
			return err
		}
	}
	if left > 0 {
		return fmt.Errorf("%d spilled batches left undrained", left)
	}
	return nil
}

// fmtSec renders a duration in seconds at microsecond resolution.
func fmtSec(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
