// Package exp is the experiment registry: one entry per table and figure of
// the paper's evaluation, each regenerating the corresponding rows/series
// from the simulator, the analytic models, the attack harness, and the
// power model. The cmd/autorfm-bench binary and the repository's top-level
// benchmarks are thin wrappers around this package.
//
// Simulation-driven experiments express their work as a flat list of
// sim.Config jobs submitted to a Runner — usually a runner.Pool (see
// internal/runner): jobs execute in parallel across the runner's workers,
// duplicate configurations — most notably the per-workload no-mitigation
// baseline that almost every figure needs — are simulated once and served
// from the runner's cache, and results come back in input order so the
// emitted tables are byte-identical regardless of the worker count.
package exp
