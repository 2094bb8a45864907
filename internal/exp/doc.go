// Package exp is the experiment registry: one entry per table and figure of
// the paper's evaluation, each regenerating the corresponding rows/series
// from the simulator, the analytic models, the attack harness, and the
// power model. The cmd/autorfm-bench binary and the repository's top-level
// benchmarks are thin wrappers around this package.
//
// Most of the evaluation is one shape: each workload's no-mitigation
// baseline against RFM, AutoRFM or PRAC variants. Every experiment of that
// shape (fig3, tab5, fig8, tab6, fig11, fig12, fig13, fig17, ablate)
// submits one grid through runGrid — for each profile, its baseline
// followed by one job per variant — as a single RunAll on a Runner,
// usually a runner.Pool (see internal/runner), and reads its cells by
// (profile, variant). Jobs execute in parallel across the runner's
// workers, duplicate configurations — most notably the per-workload
// baselines that almost every figure needs — are simulated once and served
// from the runner's cache, and results come back in input order, so the
// emitted tables are byte-identical regardless of the worker count. Failed
// jobs render as ERR cells; their footnotes are sorted, so they depend
// only on which jobs failed.
package exp
