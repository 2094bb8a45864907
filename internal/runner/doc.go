// Package runner is the parallel experiment engine: it executes batches of
// simulation jobs on a bounded worker pool and memoizes their results, so
// experiment sweeps (internal/exp) run one simulation per distinct
// configuration per process, spread across all CPUs, while producing
// byte-identical output to serial execution.
//
// # Determinism
//
// RunAll returns results in the order the jobs were submitted, regardless
// of the order workers complete them, and sim.Run is a pure function of
// its config (see the internal/sim determinism contract). Together these
// make the pool's parallelism unobservable in the results: for a fixed
// seed, a table built from RunAll(jobs) with 1 worker is byte-identical to
// the same table built with N workers. The repository's
// TestSerialParallelIdentical runs under -race to enforce this.
//
// # Caching
//
// Results are memoized under sim.Config.Key(), which covers every
// simulation-relevant field after normalizing defaults (workload profile,
// cores, instructions, mechanism, TH, mapping, policy, tracker, PRACETh,
// retry wait, RAA factor, prefetch degree, seed, fault config). In-flight
// deduplication is singleflight-style: if two jobs with the same key are
// submitted concurrently, one simulation runs and both receive its result.
// Configs with a NewStream override have no key and are executed
// unconditionally.
//
// # Failure isolation
//
// A job that panics does not tear down the sweep: the panic is recovered
// per job and converted to a *PanicError carrying the config key and the
// stack, so the remaining jobs complete and the caller decides how to
// render the failure. Errors (including panics) are memoized like results
// — resubmitting a deterministic failure reproduces the error without
// re-running the simulation. The exception is cancellation: entries whose
// job was cut short by the caller's context are evicted, so a resumed
// sweep re-executes them.
//
// # Result store and resume
//
// A Store is the pool's durable memo: an append-only JSON-lines file of
// {"key","result"} records keyed by sim.Config.Key(). With Pool.Store set,
// jobs the store holds are served as cache hits and every newly simulated
// result is appended as it completes. Because results round-trip exactly
// through JSON and the store is keyed by config, a sweep killed mid-run
// and rerun on the same store file produces byte-identical output to an
// uninterrupted run. One file serves autorfm-bench and autorfm-sim alike.
package runner
