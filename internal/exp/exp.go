package exp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"autorfm/internal/dram"
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
func (js jobSet) ok(i int) bool { return js.errs[i] == nil }

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

// jobLabel is a compact human identity for a job in failure footnotes:
// the workload and mechanism, then every field an experiment varies that
// is set away from its default, so no two jobs of one grid share a label
// (pinned by TestJobLabelsUnique).
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
	if c.PRACETh != 0 {
		l += fmt.Sprintf("/eth=%d", c.PRACETh)
	}
	if c.RetryWaitNS != 0 {
		l += fmt.Sprintf("/retry=%dns", c.RetryWaitNS)
	}
	if c.RAAMaxFactor != 0 {
		l += fmt.Sprintf("/raamax=%dx", c.RAAMaxFactor)
	}
	switch {
	case c.PrefetchDegree < 0:
		l += "/prefetch=off"
	case c.PrefetchDegree > 0:
		l += fmt.Sprintf("/prefetch=%d", c.PrefetchDegree)
	}
	// The tracker-path faults, spelled as their -faults injectors. The
	// chaos and panic knobs apply to a whole sweep and name themselves in
	// the failure.
	f := c.Fault
	for _, inj := range []struct {
		name string
		p    float64
	}{
		{"act-miss", f.ActMissProb}, {"bit-flip", f.TrackerBitFlipProb},
		{"drop-mitigation", f.DropMitigationProb}, {"delay-mitigation", f.DelayMitigationProb},
	} {
		if inj.p != 0 {
			l += fmt.Sprintf("/%s(p=%g)", inj.name, inj.p)
		}
	}
	return l
}

// dedup sorts failure footnotes and drops repeats (the same cached failure
// can back several cells), so a report's footnotes depend only on which
// jobs failed, not on the order the experiment laid its jobs out in.
func dedup(fails []string) []string {
	out := slices.Clone(fails)
	slices.Sort(out)
	return slices.Compact(out)
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

// base is the grid column of each profile's no-mitigation baseline; a
// grid's variants are columns 0, 1, … in the order runGrid was given them.
const base = -1

// grid is one experiment's profile × variant submission: for each profile,
// its no-mitigation baseline followed by one job per variant, all in one
// RunAll. The pool's cache runs a configuration that recurs across
// variants or experiments once.
type grid struct {
	jobSet
	profiles []workload.Profile
	variants int
}

// runGrid submits the baseline and every variant on every profile.
func runGrid(sc Scale, profiles []workload.Profile, variants ...func(*sim.Config)) (grid, error) {
	jobs := make([]sim.Config, 0, len(profiles)*(1+len(variants)))
	for _, p := range profiles {
		jobs = append(jobs, sc.simCfg(p))
		for _, v := range variants {
			jobs = append(jobs, sc.simCfg(p, v))
		}
	}
	js, err := submit(sc.pool(), sc, jobs)
	return grid{jobSet: js, profiles: profiles, variants: len(variants)}, err
}

// mech is the variant running mode at threshold th under mapping ("" keeps
// the default AMD-Zen mapping).
func mech(mode dram.Mode, th int, mapping string) func(*sim.Config) {
	return func(c *sim.Config) {
		c.Mode = mode
		c.TH = th
		c.Mapping = mapping
	}
}

// result returns profile wi's job in column v and whether it completed.
func (g grid) result(wi, v int) (sim.Result, bool) {
	i := wi*(1+g.variants) + 1 + v
	return g.res[i], g.ok(i)
}

// slowdown returns profile wi's slowdown of column test over column b, or
// ok=false when either job failed.
func (g grid) slowdown(wi, b, test int) (float64, bool) {
	br, bok := g.result(wi, b)
	tr, tok := g.result(wi, test)
	if !bok || !tok {
		return 0, false
	}
	return sim.Slowdown(br, tr), true
}

// slowdownCol is column test's per-profile slowdown over column b.
func (g grid) slowdownCol(b, test int) func(wi int) (float64, bool) {
	return func(wi int) (float64, bool) { return g.slowdown(wi, b, test) }
}

// alertCol is column test's per-profile ALERT-per-ACT in percent, defined
// where its slowdown over the baseline is.
func (g grid) alertCol(test int) func(wi int) (float64, bool) {
	return func(wi int) (float64, bool) {
		if _, ok := g.slowdown(wi, base, test); !ok {
			return 0, false
		}
		r, _ := g.result(wi, test)
		return r.AlertPerAct() * 100, true
	}
}

// mean averages at over the profiles where it is defined; ok is false when
// it is defined on none.
func (g grid) mean(at func(wi int) (float64, bool)) (float64, bool) {
	var vals []float64
	for wi := range g.profiles {
		if v, ok := at(wi); ok {
			vals = append(vals, v)
		}
	}
	return meanValid(vals)
}

// column is one per-profile quantity of a grid, with the summary key its
// average is recorded under.
type column struct {
	key string
	at  func(wi int) (float64, bool)
}

// averageRows adds one table row per profile holding each column's cell,
// then an AVERAGE row of the columns' means, and returns the summary of the
// means that are defined.
func (g grid) averageRows(tbl *stats.Table, cols ...column) map[string]float64 {
	for wi, p := range g.profiles {
		row := []interface{}{p.Name}
		for _, c := range cols {
			row = append(row, cell(c.at(wi)))
		}
		tbl.Add(row...)
	}
	summary := map[string]float64{}
	row := []interface{}{"AVERAGE"}
	for _, c := range cols {
		m, ok := g.mean(c.at)
		row = append(row, cell(m, ok))
		if ok {
			summary[c.key] = m
		}
	}
	tbl.Add(row...)
	return summary
}
