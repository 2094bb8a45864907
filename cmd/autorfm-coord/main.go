package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"autorfm"
	"autorfm/internal/dist"
	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// exportTo writes one trace artifact atomically enough for CI consumers: the
// file only exists with complete contents or not at all (temp + rename).
func exportTo(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func run() int {
	var (
		expID = flag.String("exp", "all", "experiment id (see autorfm-bench -list) or 'all'")
		scale = flag.String("scale", "quick", "effort: quick|full")
		instr = flag.Int64("instr", 0, "override instructions per core")
		wls   = flag.String("workloads", "", "comma-separated workload subset")
		seed  = flag.Uint64("seed", 1, "seed")
		quiet = flag.Bool("quiet", false, "suppress the stderr status line")

		addr      = flag.String("addr", ":9190", "address to serve the lease protocol on")
		storePath = flag.String("store", "", "content-addressed result store file (JSON-lines, shared across sweeps and restarts; empty = in-memory)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat before a job is requeued")
		maxLeases = flag.Int("max-leases", 2, "max concurrent leases per job, including the original (2 = one work-steal)")
		report    = flag.String("report", "", "write the experiment tables to this file (deterministic bytes; compare against a local autorfm-bench -report)")
		linger    = flag.Duration("linger", 0, "keep serving /status and /debug/vars this long after the sweep completes")

		spanLog   = flag.String("span-log", "", "write the merged job-lifecycle span log (autorfm-spans/v1 JSON lines) to this file after the sweep; enables span tracing")
		spanTrace = flag.String("span-trace", "", "write a Perfetto-loadable Chrome trace JSON (one track per worker) to this file after the sweep; enables span tracing")
		flightDir = flag.String("flight-dir", "", "directory for worker flight-record blobs (default: <store>.flight when -store is set, else in-memory)")
		chaos     = flag.Float64("chaos", 0, "chaos probability: each job independently panics on its worker with this probability (fleet stress test; decisions are deterministic per fault seed and job key, exactly as autorfm-bench -chaos)")
	)
	flag.Parse()

	var sc autorfm.Scale
	switch *scale {
	case "quick":
		sc = autorfm.QuickScale()
	case "full":
		sc = autorfm.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 1
	}
	if *instr > 0 {
		sc.Instructions = *instr
	}
	if *wls != "" {
		sc.Workloads = strings.Split(*wls, ",")
	}
	sc.Seed = *seed
	// The fault config travels inside each job's sim.Config, so workers
	// need no flags: the doomed subset is a pure function of the seed and
	// the job key on any machine.
	sc.Fault = fault.Config{Seed: *seed, ChaosProb: *chaos}
	if err := sc.Fault.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var todo []autorfm.Experiment
	if *expID == "all" {
		todo = autorfm.Experiments()
	} else {
		e, ok := autorfm.ExperimentByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use autorfm-bench -list)\n", *expID)
			return 1
		}
		todo = []autorfm.Experiment{e}
	}

	store := runner.NewMemStore()
	if *storePath != "" {
		s, err := runner.OpenStore(*storePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer s.Close()
		store = s
		if n := s.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "store: %d completed results loaded from %s\n", n, *storePath)
		}
	}

	coord := dist.NewCoordinator(store)
	coord.LeaseTTL = *leaseTTL
	coord.MaxLeasesPerJob = *maxLeases

	// Fleet metrics are always on (a few gauges per heartbeat); span tracing
	// only when an export path asks for it, so workers skip span buffering on
	// plain sweeps.
	coord.Trace = *spanLog != "" || *spanTrace != ""
	coord.Fleet = telemetry.NewFleet()
	coord.Publish()
	fdir := *flightDir
	if fdir == "" && *storePath != "" {
		fdir = *storePath + ".flight"
	}
	flights, err := telemetry.NewFlightStore(fdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	coord.Flights = flights
	if fdir != "" {
		fmt.Fprintf(os.Stderr, "flight records: %s\n", fdir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: coord.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "coordinator: workers connect to http://%s (status: http://%s/status)\n",
		ln.Addr(), ln.Addr())

	// SIGINT/SIGTERM cancel the sweep: RunAll unblocks with the context
	// error, workers are drained, and everything already completed is in
	// the store for the next incarnation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc.Context = ctx
	sc.Pool = coord

	if !*quiet {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					s := coord.Snapshot()
					fmt.Fprintf(os.Stderr, "\r\033[K[%d/%d jobs  %d workers  %d leases  %d hits  %d requeues  %d steals]",
						s.JobsDone, s.JobsTotal, s.Workers, s.Leases, s.StoreHits, s.Requeues, s.Steals)
				}
			}
		}()
	}

	var rep *os.File
	if *report != "" {
		rep, err = os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer rep.Close()
	}

	failed := 0
	for _, e := range todo {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		res, err := e.Run(sc)
		if !*quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(res)
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if rep != nil {
			fmt.Fprintf(rep, "%s\n", res)
		}
		failed += len(res.Failures)
	}

	// Sweep over: tell workers to exit once the last lease retires, flush
	// the store, and linger for scrapers before shutting the listener down.
	coord.Drain()
	if err := store.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "store: %v\n", err)
		failed++
	}
	if rep != nil {
		if err := rep.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			failed++
		}
	}
	// Dismiss the fleet before the listener disappears: steal losers still
	// simulating a duplicate deserve to upload, and idle workers deserve a
	// final StatusDone, so they exit 0 instead of "coordinator lost".
	// Workers that died instead of finishing age out of both gauges (lease
	// expiry, liveness horizon), so this wait is bounded.
	for ctx.Err() == nil {
		s := coord.Snapshot()
		if s.Leases == 0 && s.Workers == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Export traces only after the dismissal wait: every straggler upload and
	// lease retirement above contributes spans, so exporting earlier would
	// truncate the last jobs' lifecycles.
	if *spanLog != "" {
		if err := exportTo(*spanLog, coord.WriteSpanLog); err != nil {
			fmt.Fprintf(os.Stderr, "span log: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "span log: %s (%d spans)\n", *spanLog, len(coord.Spans()))
		}
	}
	if *spanTrace != "" {
		if err := exportTo(*spanTrace, coord.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "span trace: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "span trace: %s (load in Perfetto or chrome://tracing)\n", *spanTrace)
		}
	}
	if ids, err := flights.IDs(); err == nil && len(ids) > 0 {
		fmt.Fprintf(os.Stderr, "flight records: %d captured (ERR footnotes carry [flight <id>] references)\n", len(ids))
	}
	s := coord.Snapshot()
	fmt.Fprintf(os.Stderr, "coordinator: %d jobs (%d from store, %d uploaded), %d requeues, %d steals, %d duplicate results\n",
		s.JobsTotal, s.StoreHits, s.Uploads, s.Requeues, s.Steals, s.Duplicates)
	if *linger > 0 && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "lingering %v for status scrapers\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted; completed jobs are in the store (rerun to continue)")
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d job(s)/experiment(s) failed; see ERR cells and failure footnotes above\n", failed)
		return 1
	}
	return 0
}
