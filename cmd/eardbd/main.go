// Command eardbd runs the EAR database daemon: the aggregation tier
// between per-node reporting clients and the accounting database. It
// listens on TCP and/or a unix socket for wire-framed record batches,
// validates and deduplicates them into an in-memory eard.DB, serves
// snapshot queries (earctl dbd ...), and with -db persists what it
// acknowledged on shutdown to that one file: its records, job
// accounting records, node powers and generation, as the whole view a
// federation root reads (eardbd.SaveState), which earctl acct|report
// read too.
//
// With -fed the daemon runs as a federation root instead: a query-only
// tier over a fleet of shard daemons that merges their snapshots and
// serves the same wire API, so earctl and eargm feeds point at one
// daemon or a sharded cluster interchangeably. A root keeps no
// database and refuses record batches — reports go to the shard that
// owns the node.
//
// A root can additionally run the cascaded global manager in-process:
// -cascade sets a cluster power budget and the root then re-apportions
// it across its shards every control interval, ratcheting per-island
// pstate ceilings from the live merged power view.
//
// The -telemetry HTTP endpoint serves /metrics, /events, /healthz,
// /readyz, /slo (latency objectives), /traces with -trace, and
// /api/jobs: the per-job energy accounting query API (filter with
// ?user=, ?job=, ?since=; page with ?limit= and ?cursor=). Its / lists
// them all.
//
//	eardbd -listen 127.0.0.1:4711 -db /var/lib/ear/shard.db
//	eardbd -unix /run/eardbd.sock
//	eardbd -listen 127.0.0.1:4700 -fed 127.0.0.1:4711,127.0.0.1:4712
//	eardbd -listen 127.0.0.1:4700 -fed ... -cascade 40000 -cascade-interval 10
//
// Stop with SIGINT/SIGTERM; the -db file is written on exit, through
// a temporary file renamed into place.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eardbd/ring"
	"goear/internal/eargm"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

func main() {
	quit := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		close(quit)
	}()
	if err := run(os.Args[1:], os.Stdout, nil, quit); err != nil {
		fmt.Fprintln(os.Stderr, "eardbd:", err)
		os.Exit(1)
	}
}

// run starts the daemon. The bound addresses are reported on ready
// (when non-nil) so tests can dial ephemeral ports; closing quit shuts
// the daemon down gracefully.
func run(args []string, out io.Writer, ready chan<- []string, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("eardbd", flag.ContinueOnError)
	listen := fs.String("listen", "", "TCP listen address (host:port)")
	unix := fs.String("unix", "", "unix socket path to listen on")
	dbPath := fs.String("db", "", "state file to restore at start and save at exit (records, accounting, node powers)")
	fedShards := fs.String("fed", "", "comma-separated shard TCP endpoints: run as a federation root (query-only)")
	maxFrame := fs.Int("max-frame", 0, "per-frame payload byte limit (default 1 MiB)")
	acctRetain := fs.Int("acct-retain", 0, "resident accounting record cap: oldest (job, step) groups are evicted past it (0 = unlimited)")
	telAddr := fs.String("telemetry", "", "HTTP address serving /metrics, /events, /healthz, /readyz, /api/jobs, /slo and with -trace /traces (empty = telemetry off)")
	traceOn := fs.Bool("trace", false, "record span traces, served at /traces on the telemetry address (requires -telemetry)")
	staleAfter := fs.Float64("stale-after", 0, "readiness degrades when no record landed for this many seconds (ingest mode, 0 = off)")
	cascadeBudget := fs.Float64("cascade", 0, "cluster DC power budget in watts: run the cascaded EARGM over the shards (fed mode only, 0 = off)")
	cascadeInterval := fs.Float64("cascade-interval", 5, "cascaded EARGM control period in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" && *unix == "" {
		return fmt.Errorf("nothing to listen on: pass -listen and/or -unix")
	}
	if *cascadeBudget != 0 && *fedShards == "" {
		return fmt.Errorf("-cascade drives islands through a federation root: pass -fed")
	}
	if *traceOn && *telAddr == "" {
		return fmt.Errorf("-trace serves spans over the telemetry endpoint: pass -telemetry")
	}
	// The telemetry set is built before the server: instrument handles
	// are resolved in NewServer. The HTTP listener binds here but
	// serving starts after the service exists, because the mux also
	// mounts the service-backed /api/jobs query endpoint.
	var telLn net.Listener
	var telSet *telemetry.Set
	if *telAddr != "" {
		telSet = telemetry.NewSet()
		var err error
		telLn, err = net.Listen("tcp", *telAddr)
		if err != nil {
			return err
		}
		defer func() { _ = telLn.Close() }()
		fmt.Fprintf(out, "eardbd: telemetry on http://%s/metrics\n", telLn.Addr())
	}
	var traceBuf *trace.Buffer
	if *traceOn {
		traceBuf = trace.NewBuffer(0)
	}
	// Latency spans and SLO percentiles use a monotonic wall clock; the
	// span tree itself stays deterministic, only the timings are live.
	wallSec := telemetry.StartWallClock().Now

	// The daemon serves as a Server or as a fed.Root; both run the shared
	// wire front end, and a root's Close also hangs up on its shards.
	var svc interface {
		Serve(net.Listener) error
		Close() error
	}
	var db *eard.DB
	var srv *eardbd.Server
	var root *fed.Root
	stopCascade := func() {}
	if *fedShards != "" {
		switch {
		case *dbPath != "":
			return fmt.Errorf("-db is ingest-only: a federation root keeps no database")
		case *acctRetain != 0:
			return fmt.Errorf("-acct-retain is ingest-only: a federation root keeps no accounting store")
		}
		fleet, err := fed.NewFleet(ring.ParseMembers(*fedShards), nil)
		if err != nil {
			return err
		}
		root, err = fed.NewRoot(fed.Config{Fleet: fleet, MaxFramePayload: *maxFrame, Telemetry: telSet, Trace: traceBuf, Now: wallSec})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "eardbd: federation root over %d shards\n", len(fleet.Names()))
		svc = root

		if *cascadeBudget != 0 {
			var islands []eargm.Island
			for _, name := range fleet.Names() {
				src, err := root.IslandSource(name)
				if err != nil {
					return err
				}
				islands = append(islands, eargm.Island{Name: name, Src: src})
			}
			casc, err := eargm.NewCascade(eargm.CascadeConfig{
				BudgetW: *cascadeBudget,
				Island: eargm.Config{
					IntervalSec:  *cascadeInterval,
					MaxCapPstate: 8,
					Telemetry:    telSet,
				},
				Trace: traceBuf,
			}, islands)
			if err != nil {
				return err
			}
			// The ticker panics on a period of 0 ns or less, which a tiny
			// interval rounds to and an out-of-range one can convert to.
			period := time.Duration(casc.Interval() * float64(time.Second))
			if period <= 0 {
				return fmt.Errorf("-cascade-interval %g s has no ticker period", casc.Interval())
			}
			fmt.Fprintf(out, "eardbd: cascaded eargm over %d islands, budget %.0f W, interval %.0fs\n",
				len(islands), *cascadeBudget, casc.Interval())
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The controller's logical clock accumulates the control
				// period per tick, so a run's ratchet trace depends only
				// on the observed powers, never on wall time.
				tick := time.NewTicker(period)
				defer tick.Stop()
				now := 0.0
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						now += casc.Interval()
						if _, err := casc.Update(now); err != nil {
							// A severed shard fails the poll; the next tick
							// retries against whatever is reachable then.
							fmt.Fprintln(out, "eardbd: cascade:", err)
						}
					}
				}
			}()
			stopCascade = func() {
				close(stop)
				wg.Wait()
			}
		}
	} else {
		db = eard.NewDB()
		var saved eardbd.Saved
		if *dbPath != "" {
			loaded, sv, err := eardbd.LoadState(*dbPath)
			switch {
			case errors.Is(err, os.ErrNotExist):
				// First boot: the file appears at shutdown.
			case err != nil:
				return err
			default:
				db, saved = loaded, sv
				fmt.Fprintf(out, "eardbd: loaded %d records, %d node powers and %d accounting records from %s\n",
					db.Len(), len(saved.Powers), len(saved.Acct), *dbPath)
			}
		}
		srv = eardbd.NewServer(db, eardbd.Config{MaxFramePayload: *maxFrame, AcctMaxRecords: *acctRetain, Telemetry: telSet, Trace: traceBuf, Now: wallSec})
		svc = srv
		if err := srv.Restore(saved); err != nil {
			return err
		}
	}

	if telLn != nil {
		var queryFn accounting.QueryFunc
		slo := telemetry.NewSLO()
		health := telemetry.NewHealth()
		if root != nil {
			queryFn = root.AcctQuery
			root.LatencySLO(slo, 0, 0)
			health.Register(root.HealthCheck())
		} else {
			queryFn = srv.Acct().Query
			srv.LatencySLO(slo, 0, 0)
			health.Register(srv.HealthCheck(*staleAfter))
		}
		routes := map[string]http.Handler{
			"/api/jobs": accounting.Handler(queryFn),
			"/slo":      slo.Handler(),
		}
		if traceBuf != nil {
			routes["/traces"] = traceBuf.Handler()
		}
		telemetry.ServeEndpoint(telLn, telSet, health, routes)
	}

	var addrs []string
	serveErr := make(chan error, 2)
	listenAndServe := func(network, addr string) error {
		l, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		addrs = append(addrs, l.Addr().String())
		fmt.Fprintf(out, "eardbd: listening on %s %s\n", network, l.Addr())
		go func() { serveErr <- svc.Serve(l) }()
		return nil
	}
	if *listen != "" {
		if err := listenAndServe("tcp", *listen); err != nil {
			return err
		}
	}
	if *unix != "" {
		if err := listenAndServe("unix", *unix); err != nil {
			return err
		}
	}
	if ready != nil {
		// The telemetry address (when enabled) rides last so tests can
		// scrape it; wire addresses keep their positions.
		if telLn != nil {
			addrs = append(addrs, telLn.Addr().String())
		}
		ready <- addrs
	}

	var firstErr error
	select {
	case firstErr = <-serveErr:
	case <-quit:
		fmt.Fprintln(out, "eardbd: shutting down")
	}
	stopCascade()
	if err := svc.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if *unix != "" {
		// A unix socket file outlives its listener.
		if err := os.Remove(*unix); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}

	if *dbPath != "" {
		saved := srv.Saved()
		if err := eardbd.SaveState(*dbPath, db, saved); err != nil {
			return err
		}
		st := srv.Stats()
		fmt.Fprintf(out, "eardbd: saved %d records, %d node powers and %d accounting records to %s (%d batches, %d accepted, %d duplicate, %d replaced)\n",
			db.Len(), len(saved.Powers), len(saved.Acct), *dbPath, st.Batches, st.RecordsAccepted, st.RecordsDuplicate, st.RecordsReplaced)
	}
	return firstErr
}
