package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"autorfm/internal/attack"
	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/exp"
	"autorfm/internal/rng"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// sizes sets how much work each workload's jobs do. fullSize is the
// benchmark; the smoke test runs a toy size.
type sizes struct {
	steadyInstr int64
	shortInstr  int64
	auditActs   uint64
	sweep       exp.Scale
	// passJobs, when > 0, cuts every pass of steady, short and audit to
	// its first passJobs jobs.
	passJobs int
}

var fullSize = sizes{
	steadyInstr: 250_000,
	shortInstr:  2_000,
	auditActs:   1_000_000,
	sweep:       exp.Quick(),
}

// sweepWorkers is the sweep's pool size: the two CPUs of the reference host,
// fixed so the sweep's shape does not change with the host.
const sweepWorkers = 2

// The audit's defence: AutoRFM-4 with Fractal Mitigation at the paper's
// tolerated threshold.
const (
	auditPolicy = "fractal"
	auditTH     = 4
	auditTRHD   = 74
)

var auditTrackers = []string{"mint", "pride", "mithril", "graphene", "twice"}

// auditPatterns build a fresh pattern per run (fuzzed patterns keep state).
var auditPatterns = []func(seed uint64) attack.Pattern{
	func(uint64) attack.Pattern { return attack.HalfDouble(64 * 1024) },
	func(uint64) attack.Pattern { return attack.DoubleSided(90_000) },
	func(uint64) attack.Pattern { return attack.Circular(100_000, 4) },
	func(seed uint64) attack.Pattern { return attack.Fuzzed(110_000, 64, seed) },
}

// benchWorkload is one input set of the benchmark. BENCHMARK.json and
// README.md say why each exists.
type benchWorkload struct {
	name string
	new  func(sz sizes) passer
}

// passer runs a workload's job set for one seed. A pass is the unit the
// closed loop repeats: the next pass starts when the previous one returns.
type passer interface {
	pass(seed uint64, tr *tracer) *passOut
}

var workloads = []benchWorkload{
	{
		name: "sweep",
		new:  func(sz sizes) passer { return &sweepRun{scale: sz.sweep} },
	},
	{
		name: "steady",
		new: func(sz sizes) passer {
			return &simRun{jobs: steadyJobs(sz.steadyInstr), passJobs: sz.passJobs, refJobs: 3}
		},
	},
	{
		name: "short",
		new: func(sz sizes) passer {
			return &simRun{jobs: shortJobs(sz.shortInstr), passJobs: sz.passJobs, refJobs: 2}
		},
	},
	{
		name: "audit",
		new:  func(sz sizes) passer { return &auditRun{acts: sz.auditActs, passJobs: sz.passJobs} },
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// jobTime is one job's host times. id names the job within its pass, so
// the same job can be found in every pass of a run.
type jobTime struct {
	id    string
	setup time.Duration // entry to the first simulated step
	total time.Duration // the whole run
	queue time.Duration // sweep only: wait for a pool worker
}

// passOut is what one pass observed.
type passOut struct {
	// parts split the pass's time into pieces that recur in every pass of
	// a run: one per job (per experiment on sweep).
	parts     []time.Duration
	jobs      []jobTime
	probes    []time.Duration // calibrate's times, taken while no job runs
	lastCalib time.Time
	ops       int64 // simulated events; attacker ACTs on audit
	allocJobs int   // jobs allocs_per_job divides by
	attempted int
	failed    int
	// digests are per job (per experiment on sweep), in job order; a failed
	// job leaves a zero digest.
	digests  [][32]byte
	exact    map[string]float64
	readLat  float64 // sum of simulated read latencies, ns
	paperErr float64 // sweep only
	problems []string
	// check re-runs part of the pass without any benchmark hook and
	// reports where the hooked pass disagrees with it.
	check func() []string

	mallocs uint64 // filled in by the loop
	gc      uint32
}

func newPass() *passOut { return &passOut{exact: map[string]float64{}, paperErr: math.NaN()} }

func (p *passOut) problem(format string, args ...interface{}) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// record adds one job's output digest in job order and reports whether
// the job succeeded; a failed job leaves a zero digest and a problem.
func (p *passOut) record(label string, out interface{}, err error) bool {
	d, derr := digest(out)
	if err == nil {
		err = derr
	}
	if err != nil {
		p.failed++
		p.problem("%s: %v", label, err)
		p.digests = append(p.digests, [32]byte{})
		return false
	}
	p.digests = append(p.digests, d)
	return true
}

// timed adds a serial job's host times: set-up from start to loop, and the
// whole run from start to end.
func (p *passOut) timed(label string, start, loop, end time.Time) {
	p.jobs = append(p.jobs, jobTime{id: label, setup: loop.Sub(start), total: end.Sub(start)})
	p.parts = append(p.parts, end.Sub(start))
}

// digest returns the sha256 of the canonical JSON of v.
func digest(v interface{}) ([32]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// passDigest folds a pass's per-job digests, in job order, into sim_digest.
func passDigest(ds [][32]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// addResult adds a simulation's exact counters to the pass and checks the
// invariants every Result must hold.
func (p *passOut) addResult(res sim.Result) {
	e := p.exact
	e["event.events"] += float64(res.Events)
	e["cache.hits"] += float64(res.Cache.Hits)
	e["cache.misses"] += float64(res.Cache.Misses)
	e["cache.merged"] += float64(res.Cache.Merged)
	e["cache.prefetches"] += float64(res.Cache.Prefetches)
	e["cache.writebacks"] += float64(res.Cache.Writebacks)
	e["memctrl.reads"] += float64(res.MC.Reads)
	e["memctrl.writes"] += float64(res.MC.Writes)
	e["memctrl.acts"] += float64(res.MC.Acts)
	e["memctrl.row_hits"] += float64(res.MC.RowHits)
	e["memctrl.alerts"] += float64(res.MC.Alerts)
	e["memctrl.rfms"] += float64(res.MC.RFMs)
	e["memctrl.refs"] += float64(res.MC.REFs)
	e["memctrl.prac_backoffs"] += float64(res.MC.PRACBackoffs)
	e["dram.mitigations"] += float64(res.Dev.Mitigations)
	e["dram.transitive_mits"] += float64(res.Dev.TransitiveMits)
	e["dram.victim_refreshes"] += float64(res.Dev.VictimRefreshes)
	e["dram.abo_alerts"] += float64(res.Dev.ABOAlerts)
	p.readLat += res.MC.ReadLatencySum.Nanoseconds()

	n := res.Config.Normalized()
	label := jobLabel(n)
	if want := int64(n.Cores) * n.InstructionsPerCore; res.Instructions < want {
		p.problem("%s: retired %d instructions, want at least %d", label, res.Instructions, want)
	}
	if res.Events <= 0 || res.Elapsed <= 0 {
		p.problem("%s: no simulated progress (%d events, elapsed %v)", label, res.Events, res.Elapsed)
	}
	if n.Mode != dram.ModeAutoRFM && (res.MC.Alerts != 0 || res.Dev.Alerts != 0) {
		p.problem("%s: %d ALERTs outside AutoRFM", label, res.MC.Alerts)
	}
	if n.Mode != dram.ModeRFM && res.MC.RFMs != 0 {
		p.problem("%s: %d RFM commands outside RFM", label, res.MC.RFMs)
	}
	if n.Mode != dram.ModePRAC && (res.MC.PRACBackoffs != 0 || res.Dev.ABOAlerts != 0) {
		p.problem("%s: %d PRAC back-offs outside PRAC", label, res.MC.PRACBackoffs)
	}
	if n.Mode == dram.ModeNone && res.Dev.Mitigations != 0 {
		p.problem("%s: %d mitigations with no mechanism", label, res.Dev.Mitigations)
	}
}

func jobLabel(c sim.Config) string {
	return fmt.Sprintf("%s/%v-%d/seed%d", c.Workload.Name, c.Mode, c.TH, c.Seed)
}

// streamHook returns a sim.Config.NewStream that builds the generator the
// machine would build itself, timed when js is set. The machine asks for
// core 0's stream once validation, device reset and LLC pre-warm are done,
// so the hook stores that moment, the end of set-up, in loop.
func streamHook(cfg sim.Config, js *jobSpans, loop *time.Time) func(core int) cpu.Stream {
	wl, seed := cfg.Workload, cfg.Seed
	return func(core int) cpu.Stream {
		if core == 0 {
			*loop = time.Now()
		}
		g := workload.NewGenerator(wl, core, seed^0xc0de)
		if js == nil {
			return g
		}
		return &timedStream{inner: g, js: js}
	}
}

// simRun runs simulation jobs serially on one sim.Machine.
type simRun struct {
	m        sim.Machine
	jobs     func(seed uint64) []sim.Config
	passJobs int
	refJobs  int // jobs check re-runs
}

// steadyJobs is {lbm, mcf, conncomp, add} × {RFM-4, AutoRFM-4, PRAC}.
func steadyJobs(instr int64) func(seed uint64) []sim.Config {
	return func(seed uint64) []sim.Config {
		var cfgs []sim.Config
		for _, name := range []string{"lbm", "mcf", "conncomp", "add"} {
			p, err := workload.ByName(name)
			if err != nil {
				panic(err) // a fixed Table V name
			}
			for _, mode := range []dram.Mode{dram.ModeRFM, dram.ModeAutoRFM, dram.ModePRAC} {
				cfgs = append(cfgs, sim.Config{Workload: p, Mode: mode, TH: 4,
					InstructionsPerCore: instr, Seed: seed})
			}
		}
		return cfgs
	}
}

// shortJobs is all 21 workloads × {none, AutoRFM-4}.
func shortJobs(instr int64) func(seed uint64) []sim.Config {
	return func(seed uint64) []sim.Config {
		var cfgs []sim.Config
		for _, p := range workload.Profiles() {
			for _, mode := range []dram.Mode{dram.ModeNone, dram.ModeAutoRFM} {
				cfgs = append(cfgs, sim.Config{Workload: p, Mode: mode, TH: 4,
					InstructionsPerCore: instr, Seed: seed})
			}
		}
		return cfgs
	}
}

func (r *simRun) pass(seed uint64, tr *tracer) *passOut {
	cfgs := r.jobs(seed)
	if r.passJobs > 0 && r.passJobs < len(cfgs) {
		cfgs = cfgs[:r.passJobs]
	}
	p := newPass()
	for _, cfg := range cfgs {
		p.calibrateDue()
		p.attempted++
		label := jobLabel(cfg)
		js := tr.job(label)
		var loop time.Time
		cfg.NewStream = streamHook(cfg, js, &loop)
		if js != nil {
			if err := js.install(&cfg); err != nil {
				p.record(label, nil, err)
				continue
			}
		}
		t0 := time.Now()
		res, err := r.m.Run(cfg)
		t1 := time.Now()
		if !p.record(label, res, err) {
			continue
		}
		tr.done(js, t0, loop, t1)
		p.timed(label, t0, loop, t1)
		p.ops += res.Events
		p.addResult(res)
	}
	p.allocJobs = len(cfgs)

	ref := cfgs[:min(r.refJobs, len(cfgs))]
	want := p.digests
	p.check = func() []string {
		var bad []string
		for i, cfg := range ref {
			res, err := sim.Run(cfg)
			d, derr := digest(res)
			switch {
			case err != nil || derr != nil:
				bad = append(bad, fmt.Sprintf("%s: reference run failed: %v %v", jobLabel(cfg), err, derr))
			case d != want[i]:
				bad = append(bad, fmt.Sprintf("%s: benchmark hooks changed the Result", jobLabel(cfg)))
			}
		}
		return bad
	}
	return p
}

// auditRun runs attack audits serially.
type auditRun struct {
	acts     uint64
	passJobs int
}

type auditJob struct {
	cfg     attack.Config
	pattern func(seed uint64) attack.Pattern
}

func (r *auditRun) jobs(seed uint64) []auditJob {
	var js []auditJob
	for _, trk := range auditTrackers {
		for _, pat := range auditPatterns {
			js = append(js, auditJob{cfg: attack.Config{TH: auditTH, Policy: auditPolicy, Tracker: trk,
				TRHD: auditTRHD, Acts: r.acts, Seed: seed}, pattern: pat})
		}
	}
	if r.passJobs > 0 && r.passJobs < len(js) {
		js = js[:r.passJobs]
	}
	return js
}

func (r *auditRun) pass(seed uint64, tr *tracer) *passOut {
	jobs := r.jobs(seed)
	p := newPass()
	for _, j := range jobs {
		p.calibrateDue()
		p.attempted++
		cfg := j.cfg
		pat := j.pattern(seed)
		label := fmt.Sprintf("%s/%s/seed%d", cfg.Tracker, pat.Name, seed)
		js := tr.job(label)
		if js != nil {
			cfg.Tracker, cfg.Policy = "bench."+cfg.Tracker, "bench."+cfg.Policy
			auditSpans.Store(js)
		}
		// The first attacker row is asked for once the device is built.
		var loop time.Time
		row := pat.Row
		pat.Row = func(i uint64, rs *rng.Source) uint32 {
			if i == 0 {
				loop = time.Now()
			}
			return row(i, rs)
		}
		t0 := time.Now()
		rep, err := attack.Run(cfg, pat)
		t1 := time.Now()
		auditSpans.Store(nil)
		if !p.record(label, rep, err) {
			continue
		}
		tr.done(js, t0, loop, t1)
		p.timed(label, t0, loop, t1)
		p.ops += int64(rep.Acts + rep.Alerts)
		e := p.exact
		e["attack.acts"] += float64(rep.Acts)
		e["attack.alerts"] += float64(rep.Alerts)
		e["attack.mitigations"] += float64(rep.Mitigations)
		e["attack.refreshes"] += float64(rep.Refreshes)
		e["attack.failures"] += float64(rep.Failures)
		e["attack.max_damage"] = math.Max(e["attack.max_damage"], float64(rep.MaxDamage))
		e["dram.mitigations"] += float64(rep.Mitigations)
		e["dram.transitive_mits"] += float64(rep.Transitive)
		e["dram.victim_refreshes"] += float64(rep.Refreshes)
		if rep.Acts != cfg.Acts {
			p.problem("%s: %d attacker ACTs, want %d", label, rep.Acts, cfg.Acts)
		}
		if rep.Mitigations > rep.Acts {
			p.problem("%s: %d mitigations for %d ACTs", label, rep.Mitigations, rep.Acts)
		}
		// A row that reaches the threshold flips and restarts at zero, so the
		// worst damage stays below it and touches it minus one on a failure.
		if rep.MaxDamage >= 2*auditTRHD || (rep.Failures > 0) != (rep.MaxDamage == 2*auditTRHD-1) {
			p.problem("%s: %d failures but max damage %d against threshold %d", label, rep.Failures, rep.MaxDamage, 2*auditTRHD)
		}
	}
	p.allocJobs = len(jobs)

	first, want := jobs[0], p.digests[0]
	p.check = func() []string {
		rep, err := attack.Run(first.cfg, first.pattern(seed))
		d, derr := digest(rep)
		switch {
		case err != nil || derr != nil:
			return []string{fmt.Sprintf("audit reference run failed: %v %v", err, derr)}
		case d != want:
			return []string{"audit: benchmark hooks changed the Report"}
		}
		return nil
	}
	return p
}

// sweepRun runs every registered experiment through one fresh pool.
type sweepRun struct {
	scale exp.Scale
}

// checkExperiment is the experiment sweep's check regenerates without any
// hook: a few AutoRFM jobs with fault injection wrapped around the tracker.
const checkExperiment = "fault"

// sweepJob is what the pool hooks saw of one simulated job. The hooks for
// one job run on one worker goroutine; the map holding the jobs is locked.
type sweepJob struct {
	queued, start, loop, runStart, end time.Time
	js                                 *jobSpans
}

func (r *sweepRun) pass(seed uint64, tr *tracer) *passOut {
	p := newPass()
	pool := runner.New(sweepWorkers)
	var mu sync.Mutex
	jobs := map[string]*sweepJob{}
	pool.OnJobPhase = func(key, phase string, start, end time.Time) {
		mu.Lock()
		defer mu.Unlock()
		switch phase {
		case runner.PhaseQueue:
			jobs[key] = &sweepJob{queued: start}
		case runner.PhaseRun:
			j := jobs[key]
			j.runStart, j.end = start, end
			if j.js != nil {
				j.js.queued = j.queued
				tr.done(j.js, j.start, j.loop, end)
			}
		}
	}
	pool.Instrument = func(cfg *sim.Config, key string) {
		mu.Lock()
		j := jobs[key]
		mu.Unlock()
		j.start = time.Now()
		j.js = tr.job(jobLabel(*cfg))
		cfg.NewStream = streamHook(*cfg, j.js, &j.loop)
		if j.js != nil {
			if err := j.js.install(cfg); err != nil {
				panic(err) // the pool reports the job as failed
			}
		}
	}
	t := &tap{pool: pool, seen: map[string]bool{}, p: p}
	sc := r.scale
	sc.Seed = seed
	sc.Pool = t

	summaries := map[string]map[string]float64{}
	var checkIdx int
	for i, e := range exp.All() {
		p.attempted++
		if e.ID == checkExperiment {
			checkIdx = i
		}
		t0 := time.Now()
		res, err := e.Run(sc)
		p.parts = append(p.parts, time.Since(t0))
		if !p.record(e.ID, res.String(), err) {
			continue
		}
		if len(res.Failures) > 0 {
			p.failed++
			p.problem("%s: %d failed jobs, first: %s", e.ID, len(res.Failures), res.Failures[0])
		}
		summaries[e.ID] = res.Summary
		// The pool is idle between experiments.
		p.calibrateDue()
	}

	hits, misses := pool.CacheStats()
	p.allocJobs = misses
	p.ops = pool.SimulatedEvents()
	p.exact["runner.sim_jobs"] = float64(misses)
	p.exact["runner.cache_hits"] = float64(hits)
	for key, j := range jobs {
		p.jobs = append(p.jobs, jobTime{id: key, setup: j.loop.Sub(j.start),
			total: j.end.Sub(j.runStart), queue: j.start.Sub(j.queued)})
	}
	p.paperErr = paperErr(summaries)
	if math.IsNaN(p.paperErr) {
		p.problem("sweep: a headline cell compared against the paper is missing")
	}

	want := p.digests[checkIdx]
	p.check = func() []string {
		e, _ := exp.ByID(checkExperiment)
		plain := r.scale
		plain.Seed = seed
		plain.Pool = runner.New(sweepWorkers)
		res, err := e.Run(plain)
		d, derr := digest(res.String())
		switch {
		case err != nil || derr != nil:
			return []string{fmt.Sprintf("%s reference run failed: %v %v", checkExperiment, err, derr)}
		case d != want:
			return []string{checkExperiment + ": benchmark hooks changed the report"}
		}
		return nil
	}
	return p
}

// tap is the sweep's exp.Runner: it forwards to the pool and adds each
// distinct simulated Result to the pass, so the pass's exact counters cover
// every job the pool simulated exactly once.
type tap struct {
	pool *runner.Pool
	mu   sync.Mutex
	seen map[string]bool
	p    *passOut
}

func (t *tap) RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error) {
	res, errs := t.pool.RunAll(ctx, cfgs)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, cfg := range cfgs {
		t.p.attempted++
		if errs[i] != nil {
			t.p.failed++
			continue
		}
		if k := cfg.Key(); !t.seen[k] {
			t.seen[k] = true
			t.p.addResult(res[i])
		}
	}
	return res, errs
}

// paperCells are headline Summary cells with the paper's values as quoted
// in EXPERIMENTS.md.
var paperCells = []struct {
	exp, key string
	paper    float64
}{
	{"fig11", "rfm4_avg_pct", 33}, {"fig11", "rfm8_avg_pct", 12.9},
	{"fig11", "autorfm4_avg_pct", 3.1}, {"fig11", "autorfm8_avg_pct", 2.3},
	{"fig8", "zen_avg_slowdown_pct", 16.5}, {"fig8", "rubix_avg_slowdown_pct", 3.1},
	{"fig8", "zen_alert_per_act_pct", 3.7}, {"fig8", "rubix_alert_per_act_pct", 0.22},
	{"tab6", "autorfm4_trhd_fm", 74}, {"tab6", "autorfm4_trhd_rm", 96},
	{"tab6", "autorfm5_trhd_fm", 96}, {"tab6", "autorfm5_trhd_rm", 117},
	{"tab6", "autorfm6_trhd_fm", 117}, {"tab6", "autorfm6_trhd_rm", 139},
	{"tab6", "autorfm8_trhd_fm", 161}, {"tab6", "autorfm8_trhd_rm", 182},
	{"fig12", "rubix_overhead_mw", 36}, {"fig12", "autorfm8_overhead_mw", 65},
	{"fig12", "autorfm4_overhead_mw", 92},
	{"fig17", "rubix_extra_acts_pct_th4", 18},
	{"fig16", "fm_damage_limit", 104},
}

// paperErr is the mean absolute percentage error of paperCells, or NaN when
// a cell is missing.
func paperErr(summaries map[string]map[string]float64) float64 {
	sum := 0.0
	for _, c := range paperCells {
		v, ok := summaries[c.exp][c.key]
		if !ok {
			return math.NaN()
		}
		sum += math.Abs(v-c.paper) / c.paper * 100
	}
	return sum / float64(len(paperCells))
}

// avgReadLatency is the pass's mean simulated read latency in ns.
func (p *passOut) avgReadLatency() float64 {
	if p.exact["memctrl.reads"] == 0 {
		return 0
	}
	return p.readLat / p.exact["memctrl.reads"]
}
