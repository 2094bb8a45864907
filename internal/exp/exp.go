package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/stats"
	"autorfm/internal/workload"
)

// Scale controls how much work each experiment does. The paper's full runs
// use 1B instructions per core; all reported metrics are rates, so shorter
// slices reproduce them with more noise.
type Scale struct {
	// Instructions per core per simulation run.
	Instructions int64
	// Workloads to include ("" entries are ignored); nil means all 21.
	Workloads []string
	// AttackActs is the attacker activation budget for security audits.
	AttackActs uint64
	// Seed drives all randomness.
	Seed uint64
	// Jobs is the worker-pool size for simulations (0 = all CPUs).
	// Parallelism never changes results: tables are byte-identical at
	// any Jobs value for a fixed seed.
	Jobs int
	// Pool, when set, is the runner the experiment submits its jobs to,
	// overriding Jobs. Passing one pool to several experiments shares
	// its result cache across them, so e.g. the per-workload baselines
	// computed by Fig3 are reused by Table5, Fig8, Fig11, … Any Runner
	// works — a *runner.Pool, or a wrapper that observes one — because
	// results are deterministic per config.
	Pool Runner
	// Context, when set, cancels in-flight simulations: a fired context
	// aborts the experiment with the context's error. Nil means
	// context.Background().
	Context context.Context
	// Fault is injected into every simulation job the experiment
	// submits: a way to study mitigation degradation under tracker and
	// command faults (see internal/fault and the `fault` experiment),
	// and — via its chaos knobs — to prove the engine isolates job
	// failures. Individual jobs that die render as ERR cells; the rest
	// of the table still computes.
	Fault fault.Config
}

// ctx returns the scale's context, defaulting to Background.
func (sc Scale) ctx() context.Context {
	if sc.Context != nil {
		return sc.Context
	}
	return context.Background()
}

// Quick returns the default scale used by `go test -bench`: every workload,
// short slices.
func Quick() Scale {
	return Scale{Instructions: 250_000, AttackActs: 1_000_000, Seed: 1}
}

// Full returns a publication-scale configuration (minutes per experiment).
func Full() Scale {
	return Scale{Instructions: 1_000_000, AttackActs: 20_000_000, Seed: 1}
}

// Validate checks that every requested workload exists, returning an error
// that lists the valid names otherwise.
func (sc Scale) Validate() error {
	_, err := sc.profiles()
	return err
}

// profiles resolves the scale's workload subset (all 21 when unset). An
// unknown name yields an error naming the valid workloads.
func (sc Scale) profiles() ([]workload.Profile, error) {
	if sc.Workloads == nil {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, name := range sc.Workloads {
		if name == "" {
			continue
		}
		p, err := workload.ByName(name)
		if err != nil {
			all := workload.Profiles()
			names := make([]string, len(all))
			for i, q := range all {
				names[i] = q.Name
			}
			return nil, fmt.Errorf("exp: unknown workload %q (valid: %s)",
				name, strings.Join(names, ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

// Runner executes batches of simulation jobs and reports, index-aligned,
// each job's result or error. It is the seam between the experiment
// definitions and the execution substrate: internal/runner's Pool satisfies
// it, and wrappers around a Pool (perfbench's timing tap) can observe each
// batch. Implementations must return deterministic results per config (the
// contract sim.Config.Key encodes) so tables are byte-identical regardless
// of how often jobs actually ran.
type Runner interface {
	RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error)
}

// pool returns the runner the experiment should submit jobs to: the shared
// one if the caller provided it, otherwise a fresh pool with sc.Jobs
// workers.
func (sc Scale) pool() Runner {
	if sc.Pool != nil {
		return sc.Pool
	}
	return runner.New(sc.Jobs)
}

// simCfg builds the simulation config for one profile at this scale, with
// optional mutations applied (no mutation = the no-mitigation baseline).
func (sc Scale) simCfg(p workload.Profile, muts ...func(*sim.Config)) sim.Config {
	cfg := sim.Config{
		Workload:            p,
		InstructionsPerCore: sc.Instructions,
		Seed:                sc.Seed,
		Fault:               sc.Fault,
	}
	for _, mut := range muts {
		mut(&cfg)
	}
	return cfg
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Table *stats.Table
	// Summary holds the experiment's headline numbers (averages, key
	// thresholds) so benchmarks can report them as metrics.
	Summary map[string]float64
	// Failures footnotes the jobs that died (panicked, timed out, or were
	// rejected): their cells render as ERR in the table, the cause lands
	// here, and the rest of the experiment still computes. Non-empty
	// Failures make the bench process exit non-zero after emitting
	// everything it produced.
	Failures []string
}

// String renders the result in paper style.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s += "summary:"
		for _, k := range keys {
			s += fmt.Sprintf(" %s=%.3f", k, r.Summary[k])
		}
		s += "\n"
	}
	for i, f := range r.Failures {
		if i == 0 {
			s += "failures:\n"
		}
		s += "  " + f + "\n"
	}
	return s
}

// Experiment is one registered table/figure generator. Run returns an
// error only for invalid scales (unknown workload names) or simulator
// configuration errors; it never panics on bad input.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale) (Result, error)
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1d", "Slowdown of RFM as Rowhammer thresholds reduce", Fig1d},
		{"fig3", "Performance impact of RFM-4/8/16/32 per workload", Fig3},
		{"tab3", "Threshold tolerated by MINT vs window (analytic)", Table3},
		{"tab5", "Workload characteristics: ACT-PKI and ACT-per-tREFI", Table5},
		{"fig8", "AutoRFM-4 slowdown and ALERT/ACT: Zen vs Rubix mapping", Fig8},
		{"tab6", "Slowdown and TRH-D: recursive vs fractal mitigation", Table6},
		{"fig11", "RFM vs AutoRFM slowdown at TH 4 and 8", Fig11},
		{"fig12", "DRAM power: baseline, Rubix, AutoRFM-8, AutoRFM-4", Fig12},
		{"fig13", "Average slowdown of PRAC, RFM, AutoRFM vs threshold", Fig13},
		{"fig14", "TRH-D vs MINT window: recursive vs fractal (analytic)", Fig14},
		{"fig16", "Escape probability vs damage: MINT-4 vs FM", Fig16},
		{"fig17", "RFM slowdown under Zen vs Rubix mapping", Fig17},
		{"fig18", "TRH-D of PrIDE, MINT, Mithril under AutoRFM", Fig18},
		{"appb", "Security of Fractal Mitigation (Appendix B + audit)", AppB},
		{"ablate", "Design-choice ablations (retry wait, RFM scheduling, mapping, prefetch)", Ablations},
		{"fault", "Mitigation degradation under injected tracker/command faults", Fault},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// jobSet is the outcome of one RunAll submission with per-job failure
// bookkeeping: a failed job renders as an ERR cell and a footnote instead
// of aborting the experiment, so a sweep emits everything it computed.
type jobSet struct {
	jobs []sim.Config
	res  []sim.Result
	errs []error
}

// submit runs the jobs on the pool under the scale's context. It returns
// an error only when the context itself fired — per-job failures (panics,
// timeouts, rejected configs) come back inside the jobSet for the caller
// to render.
func submit(pool Runner, sc Scale, jobs []sim.Config) (jobSet, error) {
	res, errs := pool.RunAll(sc.ctx(), jobs)
	if err := sc.ctx().Err(); err != nil {
		return jobSet{}, fmt.Errorf("exp: cancelled: %w", err)
	}
	return jobSet{jobs: jobs, res: res, errs: errs}, nil
}

// ok reports whether job i completed.
func (js jobSet) ok(is ...int) bool {
	for _, i := range is {
		if js.errs[i] != nil {
			return false
		}
	}
	return true
}

// slowdown returns the test-over-base slowdown, or ok=false when either
// job failed.
func (js jobSet) slowdown(base, test int) (float64, bool) {
	if !js.ok(base, test) {
		return 0, false
	}
	return sim.Slowdown(js.res[base], js.res[test]), true
}

// failures lists the failed jobs as "label: cause" footnotes, deduplicated
// (the same cached failure can back several cells).
func (js jobSet) failures() []string {
	var out []string
	for i, err := range js.errs {
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", jobLabel(js.jobs[i]), err))
		}
	}
	return dedup(out)
}

// jobLabel is a compact human identity for a job in failure footnotes.
func jobLabel(c sim.Config) string {
	l := fmt.Sprintf("%s/%v", c.Workload.Name, c.Mode)
	if c.TH > 0 {
		l += fmt.Sprintf("-%d", c.TH)
	}
	if c.Mapping != "" {
		l += "/" + c.Mapping
	}
	if c.Tracker != "" {
		l += "/" + c.Tracker
	}
	return l
}

// dedup removes repeated failure footnotes while preserving order (the
// same cached failure can surface from several submissions).
func dedup(fails []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range fails {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// meanValid averages the non-NaN entries; ok is false when none are.
func meanValid(vals []float64) (float64, bool) {
	var kept []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return 0, false
	}
	return stats.Mean(kept), true
}

// cell renders a value, or ERR when its inputs failed.
func cell(v float64, ok bool) interface{} {
	if !ok {
		return "ERR"
	}
	return v
}

// slowdowns submits, for each profile, the no-mitigation baseline and the
// mutated config as one job list and returns the per-profile slowdowns
// (NaN where either job failed), test results in profile order, and the
// failure footnotes. The pool's cache deduplicates the baselines across
// calls.
func slowdowns(pool Runner, sc Scale, profiles []workload.Profile, mut func(*sim.Config)) ([]float64, []sim.Result, []string, error) {
	jobs := make([]sim.Config, 0, 2*len(profiles))
	for _, p := range profiles {
		jobs = append(jobs, sc.simCfg(p), sc.simCfg(p, mut))
	}
	js, err := submit(pool, sc, jobs)
	if err != nil {
		return nil, nil, nil, err
	}
	sds := make([]float64, len(profiles))
	tests := make([]sim.Result, len(profiles))
	for i := range profiles {
		if sd, ok := js.slowdown(2*i, 2*i+1); ok {
			sds[i] = sd
		} else {
			sds[i] = math.NaN()
		}
		tests[i] = js.res[2*i+1]
	}
	return sds, tests, js.failures(), nil
}
