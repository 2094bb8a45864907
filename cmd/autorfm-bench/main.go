package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
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
	"autorfm/internal/obs"
	"autorfm/internal/plugin"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
)

// benchExperiment is one experiment's cost in a -benchjson report. Counter
// fields are deltas over the experiment: jobs actually simulated vs served
// from the pool cache, discrete events dispatched by the simulated jobs, and
// heap allocations (runtime.MemStats.Mallocs, so process-wide — meaningful
// at -j 1, indicative otherwise).
type benchExperiment struct {
	ID           string  `json:"id"`
	WallNS       int64   `json:"wall_ns"`
	SimJobs      int     `json:"sim_jobs"`
	CacheHits    int     `json:"cache_hits"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	NSPerEvent   float64 `json:"ns_per_event"`
	Allocs       uint64  `json:"allocs"`
}

// benchReport is the -benchjson document: schema "autorfm-bench/v2", a
// strict superset of v1 (cmd/benchdiff accepts both). v2 adds the
// process-wide peak heap footprint (runtime.MemStats.HeapSys at exit) and
// the whole-invocation simulated-events throughput. The optional Reference
// block is not emitted by the tool; it is filled in when a report is
// committed as a BENCH_*.json trajectory point, with the same measurements
// taken on the predecessor commit (see docs/PERF.md).
type benchReport struct {
	Schema      string            `json:"schema"`
	Go          string            `json:"go"`
	Scale       string            `json:"scale"`
	Jobs        int               `json:"jobs"`
	Experiments []benchExperiment `json:"experiments"`
	Total       benchExperiment   `json:"total"`
	// PeakHeapBytes is the heap footprint the run reached: HeapSys (bytes
	// obtained from the OS for the heap), read at report time. v2 only.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// TotalEventsPerSec is Total.EventsPerSec surfaced as a top-level field
	// so trajectory tooling can trend it without digging into Total. v2 only.
	TotalEventsPerSec float64         `json:"total_events_per_sec"`
	Reference         json.RawMessage `json:"reference,omitempty"`
}

// benchCounters snapshots the deltas benchExperiment is built from.
type benchCounters struct {
	hits, misses int
	events       int64
	mallocs      uint64
}

func readBenchCounters(pool *runner.Pool) benchCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h, m := pool.CacheStats()
	return benchCounters{hits: h, misses: m, events: pool.SimulatedEvents(), mallocs: ms.Mallocs}
}

func benchDelta(id string, wall time.Duration, pre, post benchCounters) benchExperiment {
	e := benchExperiment{
		ID:        id,
		WallNS:    wall.Nanoseconds(),
		SimJobs:   post.misses - pre.misses,
		CacheHits: post.hits - pre.hits,
		Events:    post.events - pre.events,
		Allocs:    post.mallocs - pre.mallocs,
	}
	if wall > 0 {
		e.EventsPerSec = float64(e.Events) / wall.Seconds()
	}
	if e.Events > 0 {
		e.NSPerEvent = float64(e.WallNS) / float64(e.Events)
	}
	return e
}

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
		resume  = flag.String("resume", "", "JSON-lines checkpoint file: preload completed jobs from it and append new ones")
		timeout = flag.Duration("timeout", 0, "per-job wall-clock limit (0 = none); an expired job renders as ERR")
		workURL = flag.String("worker", "", "run as a distributed sweep worker for the autorfm-coord at this URL instead of driving experiments")
		flight  = flag.Bool("flight", false, "worker mode: arm the failure flight recorder — each job runs with bounded forensic probes and a dying job ships a crash snapshot with its result (supersedes -metrics instrumentation)")
		report  = flag.String("report", "", "write the experiment tables to this file (deterministic bytes; compare against autorfm-coord -report)")

		chaos     = flag.Float64("chaos", 0, "chaos probability: each job independently panics with this probability (engine stress test)")
		faults    = flag.String("faults", "", "fault injector plugin specs, e.g. act-miss(p=0.01),drop-mitigation(p=0.1); composes with the -fault-* flags")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injector seed (default: -seed)")
		actMiss   = flag.Float64("fault-actmiss", 0, "per-ACT probability the tracker misses the activation")
		bitFlip   = flag.Float64("fault-bitflip", 0, "per-ACT probability of a single-bit row-address flip in the tracker")
		dropMit   = flag.Float64("fault-drop", 0, "probability a tracker nomination is dropped before the victim refreshes")
		delayMit  = flag.Float64("fault-delay", 0, "probability a nomination is deferred one mitigation slot")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
		benchJSON  = flag.String("benchjson", "", "write per-experiment timing/allocation counters to this file as JSON (schema autorfm-bench/v2)")

		metrics  = flag.String("metrics", "", "stream per-epoch telemetry of every simulated job to this JSON-lines file (schema "+telemetry.MetricsSchema+"; records carry the job's config key as run)")
		epochNS  = flag.Int64("epoch-ns", 0, "telemetry epoch length in simulated ns (0 = one tREFI window, 3900ns)")
		httpAddr = flag.String("http", "", "serve live sweep introspection on this address (expvar autorfm.sweep + net/http/pprof), e.g. :6060")
	)
	flag.Parse()

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

	fseed := *faultSeed
	if fseed == 0 {
		fseed = *seed
	}
	sc.Fault = fault.Config{
		Seed:                fseed,
		ActMissProb:         *actMiss,
		TrackerBitFlipProb:  *bitFlip,
		DropMitigationProb:  *dropMit,
		DelayMitigationProb: *delayMit,
		ChaosProb:           *chaos,
	}
	if *faults != "" {
		if err := fault.ApplySpec(*faults, &sc.Fault); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := sc.Fault.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// SIGINT/SIGTERM cancel the in-flight simulations; completed jobs have
	// already been flushed to the -resume checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc.Context = ctx

	// One pool for the whole invocation: experiments share its result
	// cache, so e.g. fig1d's Fig3 sweep makes a later fig3 free.
	pool := runner.New(*jobs)
	pool.JobTimeout = *timeout

	// Live introspection: -http serves expvar (the autorfm.sweep snapshot
	// below) and net/http/pprof for the lifetime of the sweep.
	var sweep *telemetry.SweepStatus
	if *httpAddr != "" {
		sweep = telemetry.NewSweepStatus()
		telemetry.PublishSweep(sweep)
		// Prometheus text-format mirror of the expvar snapshot, on the same
		// DefaultServeMux ServeIntrospection serves.
		http.Handle("/metrics", obs.SweepMetricsHandler(sweep))
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
	if *resume != "" {
		if f, err := os.Open(*resume); err == nil {
			n, lerr := pool.LoadCheckpoint(f)
			f.Close()
			if lerr != nil {
				fmt.Fprintln(os.Stderr, lerr)
				return 1
			}
			fmt.Fprintf(os.Stderr, "resumed %d completed jobs from %s\n", n, *resume)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		w, err := os.OpenFile(*resume, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer w.Close()
		pool.WriteCheckpoints(w)
	}
	sc.Pool = pool

	// Worker mode: instead of driving experiments, lease jobs from a
	// coordinator until its sweep drains. The pool configured above is
	// reused as-is, so -j, -timeout and -resume all apply — in particular
	// -resume doubles as the worker's local spill: every simulated result
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
			fmt.Fprintln(os.Stderr, "interrupted; completed jobs are in the checkpoint (use -resume to continue)")
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

	// Emit everything that computes; fail only at the end. A cancelled run
	// stops submitting but keeps what it already printed.
	failed := 0
	var benchRows []benchExperiment
	benchStart := time.Now()
	benchPre := readBenchCounters(pool)
	for _, e := range todo {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		pre := readBenchCounters(pool)
		res, err := e.Run(sc)
		if !*quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		benchRows = append(benchRows, benchDelta(e.ID, time.Since(start), pre, readBenchCounters(pool)))
		fmt.Println(res)
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if rep != nil {
			// The report file gets only the deterministic table bytes — no
			// timing lines — so a local and a distributed run of the same
			// sweep produce byte-identical files.
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
	if msink != nil {
		if err := msink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "metrics: %d records to %s\n", msink.Records(), *metrics)
		}
	}
	if *benchJSON != "" {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep := benchReport{
			Schema:        "autorfm-bench/v2",
			Go:            runtime.Version(),
			Scale:         *scale,
			Jobs:          pool.Workers(),
			Experiments:   benchRows,
			Total:         benchDelta("total", time.Since(benchStart), benchPre, readBenchCounters(pool)),
			PeakHeapBytes: ms.HeapSys,
		}
		rep.TotalEventsPerSec = rep.Total.EventsPerSec
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *benchJSON, err)
			failed++
		}
	}
	if hits, misses := pool.CacheStats(); hits > 0 {
		fmt.Fprintf(os.Stderr, "%d simulations run, %d served from cache (-j %d)\n",
			misses, hits, pool.Workers())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted; completed jobs are in the checkpoint (use -resume to continue)")
		return 130
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d job(s)/experiment(s) failed; see ERR cells and failure footnotes above\n", failed)
		return 1
	}
	return 0
}
