package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -http
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"autorfm"
	"autorfm/internal/dist"
	"autorfm/internal/fault"
	"autorfm/internal/mitigation"
	"autorfm/internal/plugin"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
)

func main() {
	os.Exit(run())
}

// serveFlags are the coordinator settings of a -serve sweep.
type serveFlags struct {
	addr, spanLog, spanTrace, flightDir string
	leaseTTL, linger                    time.Duration
}

func run() int {
	var (
		expID   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = flag.String("scale", "quick", "effort: quick|full")
		instr   = flag.Int64("instr", 0, "override instructions per core")
		wls     = flag.String("workloads", "", "comma-separated workload subset")
		seed    = flag.Uint64("seed", 1, "seed")
		jobs    = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		quiet   = flag.Bool("quiet", false, "suppress the stderr progress line")
		list    = flag.Bool("list", false, "list experiments and exit")
		listPl  = flag.Bool("list-plugins", false, "list registered trackers, policies and fault injectors and exit")
		storeP  = flag.String("store", "", "content-addressed result store file: serve completed jobs from it and append new ones (shared with autorfm-sim -store; under -serve, the coordinator's store)")
		timeout = flag.Duration("timeout", 0, "per-job wall-clock limit (0 = none); an expired job renders as ERR")
		workURL = flag.String("worker", "", "run as a distributed sweep worker for the -serve coordinator at this URL instead of driving experiments")
		flight  = flag.Bool("flight", false, "worker mode: arm the failure flight recorder — each job runs with bounded forensic probes and a dying job ships a crash snapshot with its result (supersedes -metrics instrumentation)")
		report  = flag.String("report", "", "write the experiment tables to this file (deterministic bytes: a -serve sweep writes the same file as a local one)")

		faults    = flag.String("faults", "", "fault injector plugin specs, e.g. act-miss(p=0.01),drop-mitigation(p=0.1) or chaos(p=0.5) (see -list-plugins)")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injector seed (default: -seed)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")

		metrics  = flag.String("metrics", "", "stream per-epoch telemetry of every simulated job to this JSON-lines file (schema "+telemetry.MetricsSchema+"; records carry the job's config key as run)")
		epochNS  = flag.Int64("epoch-ns", 0, "telemetry epoch length in simulated ns (0 = one tREFI window, 3900ns)")
		httpAddr = flag.String("http", "", "serve live sweep introspection on this address (expvar autorfm.sweep + net/http/pprof), e.g. :6060")
	)
	var sv serveFlags
	flag.StringVar(&sv.addr, "serve", "", "coordinate a distributed sweep: serve the lease protocol on this address (e.g. :9190) and let -worker processes run the jobs")
	flag.DurationVar(&sv.leaseTTL, "lease-ttl", 10*time.Second, "-serve: lease lifetime without a heartbeat before a job is requeued")
	flag.DurationVar(&sv.linger, "linger", 0, "-serve: keep serving /status and /debug/vars this long after the sweep completes")
	flag.StringVar(&sv.spanLog, "span-log", "", "-serve: write the merged job-lifecycle span log (autorfm-spans/v1 JSON lines) to this file after the sweep; enables span tracing")
	flag.StringVar(&sv.spanTrace, "span-trace", "", "-serve: write a Perfetto-loadable Chrome trace JSON (one track per worker) to this file after the sweep; enables span tracing")
	flag.StringVar(&sv.flightDir, "flight-dir", "", "-serve: directory for worker flight-record blobs (default: <store>.flight when -store is set, else in-memory)")
	flag.Parse()

	// These configure the local pool or a worker; a coordinator ignores them.
	if sv.addr != "" && (*workURL != "" || *metrics != "" || *httpAddr != "" || *flight) {
		fmt.Fprintln(os.Stderr, "-serve cannot be combined with -worker, -metrics, -http or -flight")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range autorfm.Experiments() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *listPl {
		plugin.FprintCatalog(os.Stdout, tracker.Catalog(), mitigation.Catalog(), fault.Catalog())
		return 0
	}

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
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// The fault config travels inside each job's sim.Config, so -serve
	// workers need no flags: which jobs a fault hits is a pure function of
	// the fault seed and the job key on any machine. ApplySpec accepts only
	// configs that pass fault.Config.Validate (FuzzApplySpec).
	fseed := *faultSeed
	if fseed == 0 {
		fseed = *seed
	}
	sc.Fault = fault.Config{Seed: fseed}
	if *faults != "" {
		if err := fault.ApplySpec(*faults, &sc.Fault); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// SIGINT/SIGTERM cancel the in-flight simulations; completed jobs have
	// already been flushed to the -store file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc.Context = ctx

	// One pool for the whole invocation: experiments share its result
	// cache, so e.g. fig1d's Fig3 sweep makes a later fig3 free. Under
	// -serve a coordinator takes its place as sc.Pool, and only its -store
	// is used.
	pool := runner.New(*jobs)
	pool.JobTimeout = *timeout

	// Live introspection: -http serves expvar (the autorfm.sweep snapshot
	// below) and net/http/pprof for the lifetime of the sweep.
	var sweep *telemetry.SweepStatus
	if *httpAddr != "" {
		sweep = telemetry.NewSweepStatus()
		telemetry.PublishSweep(sweep.Snapshot)
		// Prometheus text-format mirror of the expvar snapshot, on the same
		// DefaultServeMux ServeIntrospection serves.
		http.Handle("/metrics", telemetry.MetricsHandler(func(w io.Writer) error {
			return telemetry.WriteSweepProm(w, sweep.Snapshot())
		}))
		addr, err := telemetry.ServeIntrospection(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/debug/vars http://%s/metrics http://%s/debug/pprof/\n", addr, addr, addr)
	}
	if !*quiet || sweep != nil {
		pool.OnProgress = func(p runner.Progress) {
			if sweep != nil {
				sweep.Update(p.Done, p.Total, p.CacheHits, p.Failed, p.Events, p.Elapsed, p.SimElapsed, p.ETA)
			}
			if *quiet {
				return
			}
			eta := ""
			if p.ETA > 0 {
				eta = fmt.Sprintf("  eta %v", p.ETA.Round(time.Second))
			}
			fmt.Fprintf(os.Stderr, "\r\033[K[%d/%d jobs  %d cached  %v%s]",
				p.Done, p.Total, p.CacheHits, p.Elapsed.Round(100*time.Millisecond), eta)
		}
	}

	// Per-job epoch telemetry: every job the pool actually simulates gets a
	// fresh probe emitting into one shared concurrency-safe sink, labelled
	// by the job's config key. Cache hits re-deliver results without
	// re-emitting records.
	var msink *telemetry.Sink
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		msink = telemetry.NewSink(f)
		epoch := *epochNS
		pool.Instrument = func(cfg *sim.Config, key string) {
			if key == "" {
				key = cfg.Workload.Name // uncacheable stream job: best-effort label
			}
			cfg.Telemetry = &telemetry.Probe{Metrics: &telemetry.MetricsConfig{
				Sink: msink, Run: key, EpochNS: epoch,
			}}
		}
	}
	if *storeP != "" {
		store, err := runner.OpenStore(*storeP)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer store.Close()
		pool.Store = store
		if n := store.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "store: %d completed results loaded from %s\n", n, *storeP)
		}
	}
	sc.Pool = pool

	// Worker mode: instead of driving experiments, lease jobs from a
	// coordinator until its sweep drains. The pool configured above is
	// reused as-is, so -j, -timeout and -store all apply — in particular
	// -store doubles as the worker's local spill: every simulated result
	// is on disk before its upload is attempted, so losing the coordinator
	// loses no work.
	if *workURL != "" {
		name, _ := os.Hostname()
		if name == "" {
			name = "worker"
		}
		var logw io.Writer
		if !*quiet {
			logw = os.Stderr
		}
		stats, err := dist.RunWorker(ctx, dist.WorkerOptions{
			URL:    *workURL,
			Name:   fmt.Sprintf("%s-%d", name, os.Getpid()),
			Pool:   pool,
			Log:    logw,
			Flight: *flight,
		})
		fmt.Fprintf(os.Stderr, "worker: %d jobs completed (%d stolen), %d request retries\n",
			stats.Completed, stats.Stolen, stats.Retries)
		switch {
		case err == nil:
			return 0
		case ctx.Err() != nil:
			fmt.Fprintln(os.Stderr, "interrupted; rerun with the same -store file to continue")
			return 130
		default:
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	var todo []autorfm.Experiment
	if *expID == "all" {
		todo = autorfm.Experiments()
	} else {
		e, ok := autorfm.ExperimentByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expID)
			return 1
		}
		todo = []autorfm.Experiment{e}
	}

	var rep *os.File
	if *report != "" {
		var err error
		rep, err = os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer rep.Close()
	}

	var failed int
	if sv.addr != "" {
		var err error
		if failed, err = serve(sc, todo, rep, pool.Store, sv, *storeP, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		failed = runExperiments(sc, todo, rep, *quiet)
		if msink != nil {
			if err := msink.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				failed++
			} else {
				fmt.Fprintf(os.Stderr, "metrics: %d records to %s\n", msink.Records(), *metrics)
			}
		}
		if hits, misses := pool.CacheStats(); hits > 0 {
			fmt.Fprintf(os.Stderr, "%d simulations run, %d served from cache (-j %d)\n",
				misses, hits, pool.Workers())
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted; rerun with the same -store file to continue")
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d job(s)/experiment(s) failed; see ERR cells and failure footnotes above\n", failed)
		return 1
	}
	return 0
}

// runExperiments runs the experiments on sc.Pool, printing each table as it
// completes, and returns how many experiments and jobs failed; a cancelled
// run stops submitting but keeps what it printed. rep, if non-nil, gets
// only the deterministic table bytes (no timing lines), so a local and a
// distributed run of one sweep write identical files; it is closed here.
func runExperiments(sc autorfm.Scale, todo []autorfm.Experiment, rep *os.File, quiet bool) int {
	failed := 0
	for _, e := range todo {
		if sc.Context.Err() != nil {
			break
		}
		start := time.Now()
		res, err := e.Run(sc)
		if !quiet {
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
	if rep != nil {
		if err := rep.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			failed++
		}
	}
	return failed
}

// serve runs the sweep on a dist.Coordinator that serves leases on sv.addr
// to -worker processes and persists each result to store (the -store file
// at storePath, or memory when store is nil). It returns how many
// experiments, jobs and exports failed, or why the coordinator could not
// start.
func serve(sc autorfm.Scale, todo []autorfm.Experiment, rep *os.File, store *runner.Store, sv serveFlags, storePath string, quiet bool) (int, error) {
	if store == nil {
		store = runner.NewMemStore()
	}
	if sv.flightDir == "" && storePath != "" {
		sv.flightDir = storePath + ".flight"
	}
	coord := dist.NewCoordinator(store)
	coord.LeaseTTL = sv.leaseTTL
	// Fleet metrics are always on (a few gauges per heartbeat); span
	// tracing only when an export path asks for it, so workers skip span
	// buffering on plain sweeps.
	coord.Trace = sv.spanLog != "" || sv.spanTrace != ""
	coord.Fleet = telemetry.NewFleet()
	coord.Publish()
	flights, err := telemetry.NewFlightStore(sv.flightDir)
	if err != nil {
		return 0, err
	}
	coord.Flights = flights
	if sv.flightDir != "" {
		fmt.Fprintf(os.Stderr, "flight records: %s\n", sv.flightDir)
	}

	ln, err := net.Listen("tcp", sv.addr)
	if err != nil {
		return 0, err
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

	if !quiet {
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

	sc.Pool = coord
	failed := runExperiments(sc, todo, rep, quiet)

	// Sweep over: tell workers to exit once the last lease retires, flush
	// the store, and linger for scrapers before shutting the listener down.
	coord.Drain()
	if err := store.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "store: %v\n", err)
		failed++
	}
	// Dismiss the fleet before the listener disappears: steal losers still
	// simulating a duplicate deserve to upload, and idle workers deserve a
	// final StatusDone, so they exit 0 instead of "coordinator lost".
	// Workers that died instead of finishing age out of both gauges (lease
	// expiry, liveness horizon), so this wait is bounded.
	ctx := sc.Context
	for ctx.Err() == nil {
		s := coord.Snapshot()
		if s.Leases == 0 && s.Workers == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Export traces only after the dismissal wait: every straggler upload
	// and lease retirement above contributes spans, so exporting earlier
	// would truncate the last jobs' lifecycles.
	if sv.spanLog != "" {
		if err := exportTo(sv.spanLog, coord.WriteSpanLog); err != nil {
			fmt.Fprintf(os.Stderr, "span log: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "span log: %s (%d spans)\n", sv.spanLog, len(coord.Spans()))
		}
	}
	if sv.spanTrace != "" {
		if err := exportTo(sv.spanTrace, coord.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "span trace: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "span trace: %s (load in Perfetto or chrome://tracing)\n", sv.spanTrace)
		}
	}
	if ids, err := flights.IDs(); err == nil && len(ids) > 0 {
		fmt.Fprintf(os.Stderr, "flight records: %d captured (ERR footnotes carry [flight <id>] references)\n", len(ids))
	}
	s := coord.Snapshot()
	fmt.Fprintf(os.Stderr, "coordinator: %d jobs (%d from store, %d uploaded), %d requeues, %d steals, %d duplicate results\n",
		s.JobsTotal, s.StoreHits, s.Uploads, s.Requeues, s.Steals, s.Duplicates)
	if sv.linger > 0 && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "lingering %v for status scrapers\n", sv.linger)
		select {
		case <-time.After(sv.linger):
		case <-ctx.Done():
		}
	}
	return failed, nil
}

// exportTo writes one trace artifact atomically enough for CI consumers: the
// file only exists with complete contents or not at all (temp + rename).
func exportTo(path string, write func(io.Writer) error) error {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}
