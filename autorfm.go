// Package autorfm is a from-scratch reproduction of "AutoRFM: Scaling
// Low-Cost in-DRAM Trackers to Ultra-Low Rowhammer Thresholds" (Qureshi,
// HPCA 2025): a transparent Refresh-Management mechanism that lets
// low-cost in-DRAM Rowhammer trackers tolerate sub-100 activation
// thresholds at ~3% slowdown by mitigating inside a single DRAM subarray
// while the rest of the bank keeps serving requests.
//
// The package is a facade over the full system:
//
//   - a cycle-level DDR5 memory-system simulator (cores, shared LLC,
//     memory controller, banks with subarrays) — internal/sim and friends;
//   - the mitigation mechanisms under study: blocking RFM, transparent
//     AutoRFM with ALERT-based retry, and PRAC+ABO — internal/memctrl,
//     internal/dram;
//   - the low-cost trackers (MINT, PrIDE, PARFM, PARA, Mithril) and the
//     victim-refresh policies (baseline, recursive, fractal) —
//     internal/tracker, internal/mitigation;
//   - randomised memory mapping (Rubix-style) — internal/mapping;
//   - the analytic security models of the paper's appendices —
//     internal/analytic — and a Rowhammer attack/audit harness —
//     internal/attack;
//   - an experiment registry regenerating every table and figure of the
//     paper's evaluation — internal/exp.
//
// Quick start:
//
//	p, _ := autorfm.Workload("bwaves")
//	base := autorfm.Run(autorfm.Config{Workload: p})
//	auto := autorfm.Run(autorfm.Config{
//		Workload: p, Mechanism: autorfm.AutoRFM, TH: 4, Mapping: "rubix",
//	})
//	fmt.Printf("slowdown: %.1f%%\n", autorfm.Slowdown(base, auto))
package autorfm

import (
	"autorfm/internal/dram"
	"autorfm/internal/exp"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// Mechanism selects how the DRAM obtains Rowhammer-mitigation time.
type Mechanism = dram.Mode

// The supported mitigation-time mechanisms.
const (
	// None disables Rowhammer mitigation (the performance baseline).
	None = dram.ModeNone
	// RFM is DDR5 blocking Refresh Management: the memory controller
	// counts activations and stalls the bank for tRFM every TH activations.
	RFM = dram.ModeRFM
	// AutoRFM is the paper's transparent scheme: the device mitigates one
	// subarray at a time and ALERTs conflicting activations.
	AutoRFM = dram.ModeAutoRFM
	// PRAC models per-row activation counting with Alert Back-Off.
	PRAC = dram.ModePRAC
)

// Profile describes a workload (see Workload and Workloads).
type Profile = workload.Profile

// Config describes one simulation of the 8-core DDR5 system of the paper's
// Table IV. Zero values select the paper defaults: 8 cores, AMD-Zen
// mapping, MINT tracking, Fractal Mitigation, TH 4.
type Config struct {
	// Workload is the trace profile each of the rate-mode cores runs.
	Workload Profile
	// Mechanism is the mitigation-time scheme (None, RFM, AutoRFM, PRAC).
	Mechanism Mechanism
	// TH is the mitigation interval in activations (RFMTH / AutoRFMTH).
	TH int
	// Mapping is "amd-zen" (default), "rubix", or "page-in-row".
	Mapping string
	// Policy is "fractal" (default), "recursive", or "baseline".
	Policy string
	// Tracker is "mint" (default), "pride", "parfm", or "mithril".
	Tracker string
	// Instructions is the per-core retire target (default 1M).
	Instructions int64
	// Seed makes the run deterministic.
	Seed uint64
}

// Result is the outcome of one simulation run.
type Result = sim.Result

// Run simulates one configuration to completion.
func Run(cfg Config) Result {
	return sim.MustRun(sim.Config{
		Workload:            cfg.Workload,
		Mode:                cfg.Mechanism,
		TH:                  cfg.TH,
		Mapping:             cfg.Mapping,
		Policy:              cfg.Policy,
		Tracker:             cfg.Tracker,
		InstructionsPerCore: cfg.Instructions,
		Seed:                cfg.Seed,
	})
}

// Slowdown returns the percentage slowdown of test relative to base
// (weighted-throughput based, positive = slower).
func Slowdown(base, test Result) float64 { return sim.Slowdown(base, test) }

// Workload returns the named workload profile (Table V of the paper).
func Workload(name string) (Profile, error) { return workload.ByName(name) }

// Workloads returns all 21 workload profiles in paper order.
func Workloads() []Profile { return workload.Profiles() }

// Experiment is a registered regeneration of one of the paper's tables or
// figures.
type Experiment = exp.Experiment

// ExperimentResult is a regenerated table/figure with its headline numbers.
type ExperimentResult = exp.Result

// Scale controls experiment effort (see QuickScale and FullScale).
type Scale = exp.Scale

// Experiments returns every registered table/figure generator.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID looks up one experiment ("fig3", "tab6", ...).
func ExperimentByID(id string) (Experiment, bool) { return exp.ByID(id) }

// QuickScale is the default experiment effort used by the benchmarks.
func QuickScale() Scale { return exp.Quick() }

// FullScale is publication-scale experiment effort (minutes per figure).
func FullScale() Scale { return exp.Full() }

// Runner is what Scale.Pool accepts: anything that can execute a batch of
// simulation configs and return index-aligned results. A *Pool is the
// local implementation; internal/dist's Coordinator is the distributed one
// (used by autorfm-bench -serve to spread a sweep across machines while
// keeping the tables byte-identical).
type Runner = exp.Runner

// Pool is the parallel experiment engine: a worker pool that executes
// simulation jobs concurrently and memoizes results by configuration, so
// duplicate runs (e.g. each workload's no-mitigation baseline) are
// simulated once per process. Results are deterministic and independent
// of the worker count; see internal/runner for the full contract.
type Pool = runner.Pool

// NewPool returns a pool running at most workers simulations concurrently
// (0 = all CPUs). Assign it to Scale.Pool to share its result cache across
// several experiments:
//
//	pool := autorfm.NewPool(0)
//	sc := autorfm.QuickScale()
//	sc.Pool = pool
//	fig3, _ := autorfm.ExperimentByID("fig3")
//	res, err := fig3.Run(sc)
func NewPool(workers int) *Pool { return runner.New(workers) }
