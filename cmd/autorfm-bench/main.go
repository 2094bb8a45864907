package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"autorfm"
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
		storeP  = flag.String("store", "", "content-addressed result store file: serve completed jobs from it and append new ones (shared with autorfm-sim -store)")
		timeout = flag.Duration("timeout", 0, "per-job wall-clock limit (0 = none); an expired job renders as ERR")
		report  = flag.String("report", "", "write the experiment tables to this file (deterministic bytes: no timing lines)")

		faults    = flag.String("faults", "", "fault injector plugin specs, e.g. act-miss(p=0.01),drop-mitigation(p=0.1) or chaos(p=0.5) (see -list-plugins)")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injector seed (default: -seed)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")

		metrics = flag.String("metrics", "", "stream per-epoch telemetry of every simulated job to this JSON-lines file (schema "+telemetry.MetricsSchema+"; records carry the job's config key as run)")
		epochNS = flag.Int64("epoch-ns", 0, "telemetry epoch length in simulated ns (0 = one tREFI window, 3900ns)")
	)
	flag.Parse()

	// A count below its flag's range is a typo, not a request for the
	// default: reject it before any work or file creation.
	for _, f := range []struct {
		name   string
		bad    bool
		v, min interface{}
	}{
		{"instr", *instr < 0, *instr, 0},
		{"j", *jobs < 1, *jobs, 1},
		{"timeout", *timeout < 0, *timeout, time.Duration(0)},
		{"epoch-ns", *epochNS < 0, *epochNS, 0},
	} {
		if f.bad {
			fmt.Fprintf(os.Stderr, "-%s %v: must be at least %v\n", f.name, f.v, f.min)
			return 1
		}
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

	// The fault config travels inside each job's sim.Config: which jobs a
	// fault hits is a pure function of the fault seed and the job key.
	// ApplySpec accepts only configs that pass fault.Config.Validate
	// (FuzzApplySpec).
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
	// cache, so e.g. fig1d's Fig3 sweep makes a later fig3 free.
	pool := runner.New(*jobs)
	pool.JobTimeout = *timeout

	if !*quiet {
		pool.OnProgress = func(p runner.Progress) {
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

	failed := runExperiments(sc, todo, rep, *quiet)
	if msink != nil {
		if err := msink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "metrics: %d records to %s\n", msink.Records(), *metrics)
		}
	}
	if n := pool.StoreFailures(); n > 0 {
		fmt.Fprintf(os.Stderr, "store: %d result(s) could not be written to %s\n", n, *storeP)
	}
	if hits, misses := pool.CacheStats(); hits > 0 {
		fmt.Fprintf(os.Stderr, "%d simulations run, %d served from cache (-j %d)\n",
			misses, hits, pool.Workers())
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
// only the deterministic table bytes (no timing lines), so two runs of one
// sweep write identical files at any -j; it is closed here.
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
