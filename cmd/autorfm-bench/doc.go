// Command autorfm-bench regenerates the paper's tables and figures.
//
// Simulations run on a worker pool (-j, default all CPUs) with a shared
// result cache, so duplicate configurations across experiments — above all
// each workload's no-mitigation baseline — are simulated once per
// invocation. Parallelism never changes the output: for a fixed seed the
// tables are byte-identical at any -j. Progress (jobs done/total, elapsed,
// ETA) is reported on stderr while experiments run.
//
// The run is resilient: a job that panics or exceeds -timeout renders as
// an ERR cell with a footnoted cause while the rest of the sweep
// completes, and the process exits non-zero only after emitting everything
// it computed. SIGINT/SIGTERM cancel cleanly; with -store the completed
// jobs are appended to a JSON-lines result store as they finish, and a
// later invocation with the same flag continues where the interrupted one
// stopped, producing byte-identical output. The store file is shared with
// autorfm-sim -store.
//
// -report writes just the deterministic table bytes (no timing lines), so
// two runs of one sweep can be compared with cmp. -metrics streams
// per-epoch telemetry of every simulated job, and -cpuprofile/-memprofile
// write pprof profiles.
//
// Examples:
//
//	autorfm-bench -list                 # show available experiments
//	autorfm-bench -exp fig3             # one experiment at quick scale
//	autorfm-bench -exp all -scale full  # everything at publication scale
//	autorfm-bench -exp fig3 -j 1        # serial (same bytes as -j 32)
//	autorfm-bench -exp fig8 -instr 500000 -workloads bwaves,lbm,mcf
//	autorfm-bench -exp all -store run.jsonl    # interrupt, rerun, continue
//	autorfm-bench -exp tab5 -report tab5.txt   # deterministic table bytes only
//	autorfm-bench -exp fault -faults "drop-mitigation(p=0.1)"  # fault-injection study
//	autorfm-bench -list-plugins                # registered plugin catalog
package main
