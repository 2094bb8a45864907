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
// Two flags distribute a sweep (docs/DISTRIBUTED.md). -serve ADDR runs
// the same sweep with the lease-protocol coordinator of internal/dist in
// place of the local pool: it serves leases, /status, /debug/vars and
// /metrics on ADDR and persists each uploaded result to the -store file,
// so a restarted coordinator re-leases only unfinished jobs. -worker URL
// makes the process a fleet worker instead: it leases jobs from that
// coordinator, runs them on the local pool (-j, -store and -timeout apply)
// and exits 0 once the sweep drains. -report writes just the deterministic
// table bytes, so a distributed sweep can be cmp'd against a local one.
//
// Examples:
//
//	autorfm-bench -list                 # show available experiments
//	autorfm-bench -exp fig3             # one experiment at quick scale
//	autorfm-bench -exp all -scale full  # everything at publication scale
//	autorfm-bench -exp fig3 -j 1        # serial (same bytes as -j 32)
//	autorfm-bench -exp fig8 -instr 500000 -workloads bwaves,lbm,mcf
//	autorfm-bench -exp all -store run.jsonl    # interrupt, rerun, continue
//	autorfm-bench -exp all -serve :9190 -store results.jsonl  # coordinate a fleet
//	autorfm-bench -worker http://coord:9190    # lease jobs from a coordinator
//	autorfm-bench -exp tab5 -report tab5.txt   # deterministic table bytes only
//	autorfm-bench -exp fault -faults "drop-mitigation(p=0.1)"  # fault-injection study
//	autorfm-bench -list-plugins                # registered plugin catalog
package main
