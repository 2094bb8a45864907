package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"autorfm"
	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/mitigation"
	"autorfm/internal/plugin"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

// Out-of-tree plugins are linked in by blank-importing their packages here:
// each plugin package registers itself in an init function, after which its
// name works everywhere a -tracker / -policy / -faults selector is accepted
// and shows up in -list-plugins. The rotor import below is the worked
// example of docs/PLUGINS.md; add yours alongside it.
import (
	_ "autorfm/examples/plugin/rotor" // registers the "rotor" tracker
)

func main() {
	var (
		wl      = flag.String("workload", "bwaves", "workload name (see -list)")
		mech    = flag.String("mech", "autorfm", "mitigation mechanism: none|rfm|autorfm|prac")
		th      = flag.Int("th", 4, "mitigation interval in activations (RFMTH/AutoRFMTH)")
		mapName = flag.String("mapping", "amd-zen", "memory mapping: amd-zen|rubix|page-in-row")
		policy  = flag.String("policy", "fractal", "victim-refresh policy plugin spec (see -list-plugins)")
		trk     = flag.String("tracker", "mint", "in-DRAM tracker plugin spec, e.g. mint or mithril(entries=2048) (see -list-plugins)")
		instr   = flag.Int64("instr", 300_000, "instructions per core")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		jobs    = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (the test and baseline runs overlap)")
		seeds   = flag.Int("seeds", 1, "run N seeds (seed..seed+N-1) of the configuration and report the mean ± σ across them (incompatible with -metrics/-trace/-replay)")
		noBase  = flag.Bool("nobaseline", false, "skip the baseline run (no slowdown reported)")
		storeP  = flag.String("store", "", "content-addressed result store file: serve previously completed configurations from it and add new ones (shared with autorfm-bench -store)")
		list    = flag.Bool("list", false, "list workloads and exit")
		listPl  = flag.Bool("list-plugins", false, "list registered trackers, policies and fault injectors and exit")
		faults  = flag.String("faults", "", "fault injector plugin specs, e.g. act-miss(p=0.01),drop-mitigation(p=0.1)")
		faultSd = flag.Uint64("fault-seed", 0, "seed for the fault model's randomness (with -faults)")
		record  = flag.String("record", "", "capture the workload's core-0 access stream to this trace file and exit")
		recN    = flag.Int("record-n", 1_000_000, "records to capture with -record")
		replay  = flag.String("replay", "", "replay a recorded trace file on a single core instead of the synthetic workload")

		metrics  = flag.String("metrics", "", "stream per-epoch telemetry of the mitigated run to this JSON-lines file (schema "+telemetry.MetricsSchema+")")
		epochNS  = flag.Int64("epoch-ns", 0, "telemetry epoch length in simulated ns (0 = one tREFI window, 3900ns)")
		traceOut = flag.String("trace", "", "write the mitigated run's DRAM command trace to this file as Chrome trace-event JSON (load in Perfetto)")
		traceCap = flag.Int("trace-cap", 0, "command-trace ring capacity; oldest commands are dropped beyond it (0 = 65536)")
	)
	flag.Parse()

	// A count below its flag's range is a typo, not a request for the
	// default: reject it before any work.
	for _, f := range []struct {
		name   string
		v, min int
	}{{"record-n", *recN, 0}, {"seeds", *seeds, 1}, {"trace-cap", *traceCap, 0}} {
		if f.v < f.min {
			fmt.Fprintf(os.Stderr, "-%s %d: must be at least %d\n", f.name, f.v, f.min)
			os.Exit(1)
		}
	}

	if *list {
		fmt.Printf("%-12s %-8s %8s %12s\n", "workload", "suite", "ACT-PKI", "ACT/tREFI")
		for _, p := range autorfm.Workloads() {
			fmt.Printf("%-12s %-8s %8.1f %12.1f\n", p.Name, p.Suite, p.TargetACTPKI, p.TargetACTPerTREFI)
		}
		return
	}
	if *listPl {
		plugin.FprintCatalog(os.Stdout, tracker.Catalog(), mitigation.Catalog(), fault.Catalog())
		return
	}

	prof, err := autorfm.Workload(*wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (valid: %s)\n", err, strings.Join(workload.Names(), ", "))
		os.Exit(1)
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen := workload.NewGenerator(prof, 0, *seed^0xc0de)
		if err := workload.Capture(f, gen, *recN); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d records of %s (core 0) to %s\n", *recN, prof.Name, *record)
		return
	}

	var mode autorfm.Mechanism
	switch *mech {
	case "none":
		mode = autorfm.None
	case "rfm":
		mode = autorfm.RFM
	case "autorfm":
		mode = autorfm.AutoRFM
	case "prac":
		mode = autorfm.PRAC
	default:
		fmt.Fprintf(os.Stderr, "unknown mechanism %q\n", *mech)
		os.Exit(1)
	}

	scfg := sim.Config{
		Workload:            prof,
		Mode:                mode,
		TH:                  *th,
		Mapping:             *mapName,
		Policy:              *policy,
		Tracker:             *trk,
		InstructionsPerCore: *instr,
		Seed:                *seed,
	}
	if *seeds > 1 && (*metrics != "" || *traceOut != "" || *replay != "") {
		// Telemetry probes and replay streams are per-run state; they cannot
		// be shared across the seeds' runs.
		fmt.Fprintln(os.Stderr, "-seeds > 1 is incompatible with -metrics, -trace and -replay")
		os.Exit(1)
	}
	if *faults != "" {
		if err := fault.ApplySpec(*faults, &scfg.Fault); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scfg.Fault.Seed = *faultSd
	}
	// Every run's trace reader, so a corrupt trace fails the command after
	// the runs instead of passing off a cut-short run as complete.
	var (
		replayMu sync.Mutex
		replays  []*workload.TraceReader
	)
	if *replay != "" {
		// Replay runs the user's trace on one core; the workload profile
		// only pre-warms the cache.
		scfg.Cores = 1
		scfg.NewStream = func(core int) cpu.Stream {
			f, err := os.Open(*replay)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			tr, err := workload.NewTraceReader(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			replayMu.Lock()
			replays = append(replays, tr)
			replayMu.Unlock()
			return tr
		}
	}
	// Telemetry attaches to the mitigated run only (the baseline stays
	// unprobed — its totals are available from its printed stats), and is
	// observational: Results are identical with or without it.
	var (
		probe    telemetry.Probe
		sink     *telemetry.Sink
		mfile    *os.File
		cmdTrace *telemetry.CommandTrace
	)
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mfile = f
		sink = telemetry.NewSink(f)
		probe.Metrics = &telemetry.MetricsConfig{
			Sink:    sink,
			Run:     prof.Name + "/" + mode.String(),
			EpochNS: *epochNS,
		}
	}
	if *traceOut != "" {
		cmdTrace = telemetry.NewCommandTrace(*traceCap)
		probe.Trace = cmdTrace
	}
	if probe.Metrics != nil || probe.Trace != nil {
		scfg.Telemetry = &probe
	}

	// The mitigated run and (unless suppressed) the no-mitigation baseline
	// are independent jobs; run both through the worker pool so they
	// overlap on multicore machines.
	pool := runner.New(*jobs)
	if *storeP != "" {
		// Known configurations come back without simulating; new ones are
		// appended (deduped) for every later run or sweep sharing the
		// file.
		store, err := runner.OpenStore(*storeP)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer store.Close()
		pool.Store = store
		if n := store.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "store: %d completed results loaded from %s\n", n, *storeP)
		}
	}
	// One job per seed: the mitigated seeds come first, then (unless
	// suppressed) the matching no-mitigation baselines.
	nSeeds := *seeds
	var todo []sim.Config
	for b := 0; b < nSeeds; b++ {
		c := scfg
		c.Seed = *seed + uint64(b)
		todo = append(todo, c)
	}
	wantBase := !*noBase && mode != autorfm.None
	if wantBase {
		for b := 0; b < nSeeds; b++ {
			bcfg := scfg
			bcfg.Mode = dram.ModeNone
			bcfg.Seed = *seed + uint64(b)
			todo = append(todo, bcfg)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, errs := pool.RunAll(ctx, todo)
	if err := runner.FirstError(errs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, tr := range replays {
		if err := tr.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "replay %s: %v\n", *replay, err)
			os.Exit(1)
		}
	}
	res := results[0]

	fmt.Printf("workload      %s (%s)\n", prof.Name, prof.Suite)
	fmt.Printf("mechanism     %s  TH=%d  mapping=%s  policy=%s  tracker=%s\n",
		mode, *th, *mapName, *policy, *trk)
	fmt.Printf("simulated     %.3f ms  (%d instructions across %d cores)\n",
		res.Elapsed.Seconds()*1e3, res.Instructions, len(res.FinishTimes))
	fmt.Printf("ACT-PKI       %.1f   ACT/tREFI/bank %.1f   row-hit %.1f%%\n",
		res.ACTPKI(), res.ACTPerTREFI(), res.MC.RowHitRate()*100)
	fmt.Printf("reads/writes  %d / %d   avg read latency %.0f ns\n",
		res.MC.Reads, res.MC.Writes, res.MC.AvgReadLatency())
	fmt.Printf("mitigations   %d (%d victim refreshes, %d transitive)\n",
		res.Dev.Mitigations, res.Dev.VictimRefreshes, res.Dev.TransitiveMits)
	switch mode {
	case dram.ModeRFM:
		fmt.Printf("RFM commands  %d   REFs %d\n", res.MC.RFMs, res.MC.REFs)
	case dram.ModeAutoRFM:
		fmt.Printf("ALERTs        %d (%.3f%% of ACTs)\n", res.MC.Alerts, res.AlertPerAct()*100)
	case dram.ModePRAC:
		fmt.Printf("ABO back-offs %d\n", res.MC.PRACBackoffs)
	}

	if wantBase {
		fmt.Printf("slowdown      %.2f%% vs no-mitigation baseline\n",
			sim.Slowdown(results[nSeeds], res))
	}
	if nSeeds > 1 {
		// Per-seed spread: the headline numbers above are the first seed's;
		// the mean +/- stddev shows seed sensitivity.
		mean, sd := meanStddev(results[:nSeeds], func(r sim.Result) float64 { return r.ACTPKI() })
		fmt.Printf("seeds         %d (%d..%d): ACT-PKI %.1f ± %.1f",
			nSeeds, *seed, *seed+uint64(nSeeds)-1, mean, sd)
		if wantBase {
			slow := make([]float64, nSeeds)
			for i := range slow {
				slow[i] = sim.Slowdown(results[nSeeds+i], results[i])
			}
			mean, sd = meanStddevF(slow)
			fmt.Printf("   slowdown %.2f%% ± %.2f%%", mean, sd)
		}
		fmt.Println()
	}

	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		if err := mfile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics       %d records to %s\n", sink.Records(), *metrics)
	}
	if cmdTrace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cmdTrace.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace         %d commands to %s (%d dropped by ring wrap)\n",
			cmdTrace.Len(), *traceOut, cmdTrace.Dropped())
	}
}

// meanStddev reduces one metric over a slice of results to its mean and
// population standard deviation.
func meanStddev(rs []sim.Result, metric func(sim.Result) float64) (mean, sd float64) {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = metric(r)
	}
	return meanStddevF(vs)
}

func meanStddevF(vs []float64) (mean, sd float64) {
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		d := v - mean
		sd += d * d
	}
	return mean, math.Sqrt(sd / float64(len(vs)))
}
