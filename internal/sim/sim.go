package sim

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"autorfm/internal/cache"
	"autorfm/internal/clk"
	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/fault"
	"autorfm/internal/mapping"
	"autorfm/internal/memctrl"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/stats"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Workload workload.Profile
	// Cores is the number of rate-mode copies (default 8).
	Cores int
	// InstructionsPerCore is each core's retire target (default 1M; the
	// paper uses 1B — all reported metrics are rates, so shorter
	// representative slices preserve them).
	InstructionsPerCore int64
	// Mode selects the mitigation-time mechanism.
	Mode dram.Mode
	// TH is RFMTH (ModeRFM) or AutoRFMTH (ModeAutoRFM).
	TH int
	// Mapping is "amd-zen" (default), "rubix", or "page-in-row".
	Mapping string
	// Policy selects the victim-refresh policy from the plugin registry
	// (internal/mitigation): "fractal" (default), "recursive", "baseline",
	// or any registered policy, optionally parameterized as
	// "name(key=value, ...)". Unknown names and bad parameters are
	// config-time errors.
	Policy string
	// Tracker selects the in-DRAM tracker from the plugin registry
	// (internal/tracker): "mint" (default), "pride", "parfm", "para",
	// "mithril", "graphene", "twice", or any registered tracker, optionally
	// parameterized, e.g. "mithril(entries=2048)". Run
	// `autorfm-sim -list-plugins` for the catalog and docs/PLUGINS.md for
	// how to register new implementations.
	Tracker string
	// PRACETh is the ABO threshold for ModePRAC, 1 to dram.PRACMaxETh
	// (65535, where the per-row counters saturate).
	PRACETh int
	// RetryWaitNS overrides the ALERT retry wait in nanoseconds (0 = the
	// default mitigation time of ≈200ns). Used by ablation studies.
	RetryWaitNS int64
	// RAAMaxFactor overrides the MC's RAA ceiling multiplier (0 = default
	// 4; 1 = issue RFM eagerly before the next ACT). Used by ablations.
	RAAMaxFactor int
	// PrefetchDegree overrides the LLC stream-prefetch depth (0 = default
	// 40; negative disables prefetching). Used by ablations.
	PrefetchDegree int
	// Seed makes the whole run deterministic.
	Seed uint64
	// Fault configures deterministic fault injection on the tracker and
	// mitigation-delivery path (see internal/fault). The zero value injects
	// nothing; a non-zero config participates in the memoization key, so a
	// faulty run caches independently of its clean counterpart.
	Fault fault.Config
	// NewStream, when set, overrides the synthetic workload generator: core
	// i executes NewStream(i). Used to replay recorded traces
	// (workload.TraceReader) or custom streams; the Workload profile is then
	// only used for LLC pre-warming. Excluded from JSON so Results remain
	// serializable to the result store (such configs are never stored
	// anyway: they have no cache key).
	NewStream func(core int) cpu.Stream `json:"-"`
	// Telemetry, when set, attaches the observability probes of
	// internal/telemetry (epoch metrics sampler and/or DRAM command trace)
	// to the run. Telemetry is strictly observational: the Result is
	// identical with and without it (pinned by TestTelemetryDoesNotChangeResult),
	// so it is deliberately excluded from Key() and from JSON — a probed run
	// may reuse a cached unprobed Result and vice versa.
	Telemetry *telemetry.Probe `json:"-"`
	// NewTracker, when set, overrides the Tracker selector with a caller-
	// supplied per-bank constructor — the programmatic equivalent of a
	// registered plugin, for trackers that take values a spec string cannot
	// express. Its tracker runs as built: under a recursive policy the hook
	// decides MINT's transitive slot itself. Like NewStream it makes the
	// config non-memoizable (Key returns "") and is excluded from JSON.
	NewTracker func(bank int, r *rng.Source) tracker.Tracker `json:"-"`
	// NewPolicy likewise overrides the Policy selector with a per-bank
	// constructor. Non-memoizable, like NewTracker.
	NewPolicy func(bank int, r *rng.Source) mitigation.Policy `json:"-"`
}

func (c *Config) fillDefaults() {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.InstructionsPerCore == 0 {
		c.InstructionsPerCore = 1_000_000
	}
	if c.Mapping == "" {
		c.Mapping = "amd-zen"
	}
	if c.Policy == "" {
		c.Policy = "fractal"
	}
	if c.Tracker == "" {
		c.Tracker = "mint"
	}
	if c.TH == 0 {
		c.TH = 4
	}
	if c.PRACETh == 0 {
		c.PRACETh = 64
	}
}

// Normalized returns the config with all defaulted fields filled in (8
// cores, 1M instructions, amd-zen mapping, fractal policy, mint tracker,
// TH 4, PRACETh 64). Two configs that normalize equal produce identical
// Results (see the package determinism contract).
func (c Config) Normalized() Config {
	c.fillDefaults()
	return c
}

// Key returns the canonical memoization key for the config: two configs
// with the same key are guaranteed to produce identical Results, so a
// cached Result may be reused. The key covers every field that influences
// the simulation — the full workload profile (all generator parameters,
// not just the name, so hand-built profiles are keyed correctly), Cores,
// InstructionsPerCore, Mode, TH, Mapping, Policy, Tracker, PRACETh,
// RetryWaitNS, RAAMaxFactor, PrefetchDegree, and Seed — after normalizing
// defaults, so Config{TH: 0} and Config{TH: 4} share a key.
//
// Configs with a NewStream, NewTracker, or NewPolicy override are not
// memoizable (the override is an arbitrary caller-supplied function); for
// those Key returns "".
//
// The key is assembled with strconv appends rather than fmt's reflection
// (it used to be one fmt.Sprintf("%+v") per runner lookup and checkpoint
// verification, which profiles as measurable overhead on all-cache-hit
// sweeps); the output is byte-for-byte the string the fmt version
// produced, so checkpoints written by older binaries still verify —
// TestKeyMatchesFmtReference pins the equivalence and BenchmarkConfigKey
// the speedup. The runner computes the key once per job and threads it
// through lookup, store write, and failure reporting.
func (c Config) Key() string {
	if c.NewStream != nil || c.NewTracker != nil || c.NewPolicy != nil {
		return ""
	}
	n := c.Normalized()
	// keyBytes holds every Table V key, so the buffer stays on the stack
	// and the string is Key's one allocation.
	b := make([]byte, 0, keyBytes)
	w := &n.Workload
	b = append(b, "w={Name:"...)
	b = append(b, w.Name...)
	b = append(b, " Suite:"...)
	b = append(b, w.Suite...)
	b = appendFloat(append(b, " MemPKI:"...), w.MemPKI)
	b = appendFloat(append(b, " WriteFrac:"...), w.WriteFrac)
	b = strconv.AppendInt(append(b, " FootprintMB:"...), int64(w.FootprintMB), 10)
	b = appendFloat(append(b, " SeqFrac:"...), w.SeqFrac)
	b = strconv.AppendInt(append(b, " Streams:"...), int64(w.Streams), 10)
	b = strconv.AppendInt(append(b, " Burst:"...), int64(w.Burst), 10)
	b = appendFloat(append(b, " DepFrac:"...), w.DepFrac)
	b = appendFloat(append(b, " TargetACTPKI:"...), w.TargetACTPKI)
	b = appendFloat(append(b, " TargetACTPerTREFI:"...), w.TargetACTPerTREFI)
	b = strconv.AppendInt(append(b, "}|cores="...), int64(n.Cores), 10)
	b = strconv.AppendInt(append(b, "|instr="...), n.InstructionsPerCore, 10)
	b = strconv.AppendInt(append(b, "|mode="...), int64(n.Mode), 10)
	b = strconv.AppendInt(append(b, "|th="...), int64(n.TH), 10)
	b = append(append(b, "|map="...), n.Mapping...)
	b = append(append(b, "|pol="...), n.Policy...)
	b = append(append(b, "|trk="...), n.Tracker...)
	b = strconv.AppendInt(append(b, "|eth="...), int64(n.PRACETh), 10)
	b = strconv.AppendInt(append(b, "|retry="...), n.RetryWaitNS, 10)
	b = strconv.AppendInt(append(b, "|raa="...), int64(n.RAAMaxFactor), 10)
	b = strconv.AppendInt(append(b, "|pf="...), int64(n.PrefetchDegree), 10)
	b = strconv.AppendUint(append(b, "|seed="...), n.Seed, 10)
	f := &n.Fault
	b = strconv.AppendUint(append(b, "|fault={Seed:"...), f.Seed, 10)
	b = appendFloat(append(b, " ActMissProb:"...), f.ActMissProb)
	b = appendFloat(append(b, " TrackerBitFlipProb:"...), f.TrackerBitFlipProb)
	b = appendFloat(append(b, " DropMitigationProb:"...), f.DropMitigationProb)
	b = appendFloat(append(b, " DelayMitigationProb:"...), f.DelayMitigationProb)
	b = strconv.AppendInt(append(b, " PanicAfterActs:"...), int64(f.PanicAfterActs), 10)
	b = appendFloat(append(b, " ChaosProb:"...), f.ChaosProb)
	b = append(b, '}')
	return string(b)
}

// keyBytes is Key's buffer size. A Table V key runs to about 400 bytes,
// and to 450 with a parameterized tracker, a 64-bit seed and every option
// set (TestConfigKeyAllocs).
const keyBytes = 512

// appendFloat appends v exactly as fmt's %v renders a float64: shortest
// round-trip 'g' formatting, including NaN/±Inf spellings.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(b, "NaN"...)
	}
	if math.IsInf(v, 1) {
		return append(b, "+Inf"...)
	}
	if math.IsInf(v, -1) {
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// ReusePRACRun reports whether res, the Result of a completed run of ran,
// is also the Result of at, so that at need not run. It holds when both are
// PRAC runs that injected no fault, at equals ran apart from a PRACETh at or
// above ran's (and within the counters' range), and ran raised no ABO.
//
// The proof: PRACETh enters a run only where a PRAC bank compares a row's
// raised counter with it (dram.Bank.Activate), and raising an ABO is the
// only thing that comparison can do. A run that raised no ABO kept every
// counter below its ETh, so below any higher one, and a run at the higher
// ETh takes the same branch at every ACT. A chaos kill is decided from the
// job's own Key, hence the fault condition.
//
// The caller sets the reused Result's Config to at.Normalized(). Like a
// cache hit, a reused Result emits no telemetry of its own.
func ReusePRACRun(ran Config, res Result, at Config) bool {
	r, a := ran.Normalized(), at.Normalized()
	if r.Mode != dram.ModePRAC || r.Fault.Injects() || res.Dev.ABOAlerts != 0 ||
		a.PRACETh < r.PRACETh || a.PRACETh > dram.PRACMaxETh {
		return false
	}
	r.PRACETh = a.PRACETh
	k := r.Key()
	return k != "" && k == a.Key()
}

// validate rejects every user-reachable misconfiguration of c's values as
// an error; resolvePlugins does the same for its policy and tracker
// selectors. Together they keep Run from panicking on bad input (enforced
// by FuzzConfigValidate). validate runs after fillDefaults, so zero values
// have already taken their defaults and only genuinely invalid values
// (negatives, NaNs) trip it.
func (c *Config) validate() error {
	switch c.Mode {
	case dram.ModeNone, dram.ModeRFM, dram.ModeAutoRFM, dram.ModePRAC:
	default:
		return fmt.Errorf("sim: unknown mechanism %v", c.Mode)
	}
	if c.Cores < 1 {
		return fmt.Errorf("sim: non-positive core count %d", c.Cores)
	}
	if c.InstructionsPerCore < 1 {
		return fmt.Errorf("sim: non-positive instruction target %d", c.InstructionsPerCore)
	}
	if c.TH < 1 {
		return fmt.Errorf("sim: non-positive mitigation threshold TH=%d", c.TH)
	}
	if c.PRACETh < 1 {
		return fmt.Errorf("sim: non-positive PRAC alert threshold %d", c.PRACETh)
	}
	if c.PRACETh > dram.PRACMaxETh {
		return fmt.Errorf("sim: PRAC alert threshold %d above the counters' %d", c.PRACETh, dram.PRACMaxETh)
	}
	if c.RetryWaitNS < 0 {
		return fmt.Errorf("sim: negative retry wait %dns", c.RetryWaitNS)
	}
	if c.RAAMaxFactor < 0 {
		return fmt.Errorf("sim: negative RAA ceiling factor %d", c.RAAMaxFactor)
	}
	w := c.Workload
	if math.IsNaN(w.MemPKI) || w.MemPKI <= 0 || w.MemPKI > 1000 {
		return fmt.Errorf("sim: workload %q MemPKI %v outside (0, 1000]", w.Name, w.MemPKI)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"WriteFrac", w.WriteFrac}, {"SeqFrac", w.SeqFrac}, {"DepFrac", w.DepFrac}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("sim: workload %q %s %v outside [0, 1]", w.Name, f.name, f.v)
		}
	}
	if w.FootprintMB < 1 || w.FootprintMB > 1<<20 {
		return fmt.Errorf("sim: workload %q footprint %d MB outside [1, 1Mi]", w.Name, w.FootprintMB)
	}
	// Each core gets FootprintMB of lines of its own, laid back to back by
	// prewarm and the workload generators; every one must fit the LLC's
	// tags. The division keeps the check itself from overflowing.
	if space := c.llcConfig().LineSpace(); uint64(c.Cores) > space/footprintLines(w.FootprintMB) {
		return fmt.Errorf("sim: %d cores × %d MB footprint of workload %q overflow the LLC's %d-line address space",
			c.Cores, w.FootprintMB, w.Name, space)
	}
	if w.Streams < 0 || w.Streams > 1<<16 {
		return fmt.Errorf("sim: workload %q stream count %d outside [0, 64Ki]", w.Name, w.Streams)
	}
	if w.Burst < 0 || w.Burst > 1<<20 {
		return fmt.Errorf("sim: workload %q burst %d outside [0, 1Mi]", w.Name, w.Burst)
	}
	return c.Fault.Validate()
}

// Result collects everything a run produced.
type Result struct {
	Config       Config
	FinishTimes  []clk.Tick
	Elapsed      clk.Tick // latest core finish
	Instructions int64    // total retired across cores
	// Events is the number of discrete events the run dispatched — the
	// denominator of the simulator's events/sec throughput metric. It is
	// deterministic per config, like every other Result field.
	Events int64

	MC    memctrl.Stats
	Dev   dram.BankStats
	Cache cache.Stats
	Banks int
}

// Run executes one configuration to completion.
func Run(cfg Config) (Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: the event loop polls ctx
// every few thousand events and returns ctx's error when it fires, so a
// cancelled or timed-out run stops within microseconds of simulated work
// instead of running to completion. A cancelled run returns no partial
// Result — determinism is per complete run.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	var m Machine
	return m.RunCtx(ctx, cfg)
}

// Machine is a reusable simulation allocation: the event queue, the LLC's
// tag and set arrays (kept across prefetch degrees), the memory
// controller's bank rings and write pool, the DRAM device's largest arrays
// (PRAC counters, audit ledgers — kept across mode changes), each bank's
// PRNG, victim buffer, tracker and policy (the built-in trackers keep
// their tables), the cores with their pools of memory ops and their
// workload generators, the address mapper, and the resolved policy and
// tracker selectors survive from run to run and are reset or reused
// instead of reconstructed. Sweeps that run many seeds of one configuration
// (fig1d-style) avoid rebuilding ~3MB of state per run, and a warm run of a
// registry-built config allocates little beyond its Result and what the
// caller's hooks build; a Machine run is byte-identical to a fresh Run
// (pinned by TestMachineReuseMatchesFresh).
//
// The machine also memoizes the LLC pre-warm: it keeps the way state of
// its last warmMemoCap distinct pre-warms, keyed by everything the pre-warm
// reads (warmKey). A run whose key repeats — another mechanism or threshold
// on the same workload and seed — runs on that entry's working copy of the
// way state, rolled back to the saved pre-warm by restoring only the sets
// the copy's last run changed (cache.LoadWarm), with no wipe. Any other run
// wipes the LLC (cache.Reset) and warms it line by line (prewarm). At the
// Table IV geometry each entry is 640KB saved plus, once hit, 640KB of
// working copy.
//
// The zero value is ready to use; each Run warms it further. A Machine is
// not safe for concurrent use — give each worker goroutine its own.
type Machine struct {
	q      *event.Queue
	llc    *cache.Cache
	llcCfg cache.Config
	mc     *memctrl.Controller
	dev    *dram.Device
	// cores are the cores of the last run, reset for the next one. Each
	// core's OnFinish counts rs.remaining down.
	cores []*cpu.Core
	// gens are the cores' workload generators, reset for each run that has
	// no NewStream hook.
	gens []*workload.Generator
	// mapper is the last run's address mapper, reused while the mapping
	// name and key repeat (mappers are immutable once built).
	mapper  mapping.Mapper
	mapName string
	mapKey  uint64
	// sels is the resolved policy and tracker selectors, most recent
	// first, at most selectorMemoCap of them.
	sels []selectorEntry
	// rs is the run in flight, reused from run to run.
	rs runState
	// memo is the saved pre-warms, most recent first. An entry is written
	// once, after its pre-warm completed, so it survives dirty teardowns.
	// Entries are pointers because the LLC keeps the address of the one it
	// runs on.
	memo []*warmEntry
	// dirty marks a run in flight; if a run panics or is cancelled the warm
	// state is mid-run garbage, so the next run drops it and builds fresh.
	dirty bool
}

// selectorKey is what dram.Resolve reads: the two selectors and the
// interval their probe builds run at.
type selectorKey struct {
	policy, tracker string
	th              int
}

// selectorEntry is one resolved pair of selectors.
type selectorEntry struct {
	key        selectorKey
	newPolicy  func(bank int, r *rng.Source, prev mitigation.Policy) mitigation.Policy
	newTracker func(env tracker.Env) tracker.Tracker
}

// selectorMemoCap is how many resolved selector pairs a Machine keeps,
// bounding what a long-lived worker holds as warmMemoCap does; the least
// recently used pair is resolved again when it returns.
const selectorMemoCap = 16

// resolvePlugins returns the device config's policy and tracker hooks for
// cfg: its selectors resolved by dram.Resolve, whose probe builds make
// unknown names, unknown parameters and out-of-range values config-time
// errors with the offending key in the message; then the caller's
// NewPolicy and NewTracker hooks in their place, and the fault injectors
// between the device and its trackers. (Unknown mapping names still error
// in start, where the mapper is built.) A pair of selectors resolved before
// is taken from m.sels; an error is never kept there.
func (m *Machine) resolvePlugins(cfg *Config) (dram.Config, error) {
	var d dram.Config
	k := selectorKey{cfg.Policy, cfg.Tracker, cfg.TH}
	i := 0
	for i < len(m.sels) && m.sels[i].key != k {
		i++
	}
	if i == len(m.sels) {
		pol, trk, err := dram.Resolve(cfg.Policy, cfg.Tracker, cfg.TH)
		if err != nil {
			return d, err
		}
		if i == selectorMemoCap {
			i--
		} else {
			m.sels = append(m.sels, selectorEntry{})
		}
		m.sels[i] = selectorEntry{k, pol, trk}
	}
	e := m.sels[i]
	copy(m.sels[1:i+1], m.sels[:i])
	m.sels[0] = e
	d.NewPolicy, d.NewTracker = e.newPolicy, e.newTracker
	if hook := cfg.NewPolicy; hook != nil {
		d.NewPolicy = func(bank int, r *rng.Source, _ mitigation.Policy) mitigation.Policy { return hook(bank, r) }
	}
	if hook := cfg.NewTracker; hook != nil {
		d.NewTracker = func(env tracker.Env) tracker.Tracker { return hook(env.Bank, env.R) }
	}
	if cfg.Fault.Active() {
		// Each bank's injector has its own PRNG off Fault.Seed so the fault
		// pattern is independent of the simulation's randomness. The
		// wrapper hides the inner tracker, so a faulty run builds its
		// trackers afresh.
		inner := d.NewTracker
		fcfg, seed := cfg.Fault, cfg.Seed
		d.NewTracker = func(env tracker.Env) tracker.Tracker {
			fr := rng.New(fcfg.Seed ^ seed ^ (0xfa017<<20 | uint64(env.Bank)*0x9e3779b9))
			return fault.WrapTracker(inner(env), fcfg, fr)
		}
	}
	return d, nil
}

// prepared is the configuration-level part of a run's construction:
// geometry, timing and the telemetry attachment.
type prepared struct {
	geo     mapping.Geometry
	timing  clk.Timing
	trace   *telemetry.CommandTrace
	metrics *telemetry.MetricsConfig
}

// prepare resolves cfg's geometry, timing and telemetry.
func prepare(cfg *Config) (prepared, error) {
	pre := prepared{geo: mapping.Default(), timing: clk.DDR5()}
	if cfg.Mode == dram.ModePRAC {
		pre.timing = clk.PRAC()
	}
	// Resolve the telemetry attachment early: both surfaces are optional and
	// strictly observational (see the Telemetry field's contract).
	if cfg.Telemetry != nil {
		pre.trace = cfg.Telemetry.Trace
		pre.metrics = cfg.Telemetry.Metrics
		if pre.metrics != nil && pre.metrics.Sink == nil {
			return pre, fmt.Errorf("sim: telemetry metrics enabled without a sink")
		}
		if pre.metrics != nil && pre.metrics.EpochNS < 0 {
			return pre, fmt.Errorf("sim: negative telemetry epoch %dns", pre.metrics.EpochNS)
		}
		if pre.trace != nil {
			pre.trace.SetTiming(pre.timing)
		}
	}
	return pre, nil
}

// runState is one in-flight run: its controller and cores and its
// dispatch bookkeeping.
type runState struct {
	m     *Machine
	cfg   Config
	mc    *memctrl.Controller
	cores []*cpu.Core

	// remaining counts unfinished cores; each core decrements it exactly
	// once, from its retire path, so run termination is an O(1) comparison
	// per event instead of an O(cores) scan.
	remaining int
	events    int64

	// Telemetry attachment.
	sampler     *telemetry.EpochSampler
	epochStart  clk.Tick
	epochPeriod clk.Tick
	probeEvents int64
	qHist       *stats.Histogram
}

// start builds everything a run needs — mapper, device, controller, LLC,
// pre-warm, cores — on the machine's warm state, with the policy and
// tracker hooks of pl, leaving the run ready to dispatch. cfg must already
// be filled and validated. The machine is marked dirty until finish
// completes.
func (m *Machine) start(cfg Config, pl dram.Config) (*runState, error) {
	pre, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	mapKey := cfg.Seed ^ 0xa11ce
	if m.mapper == nil || m.mapName != cfg.Mapping || m.mapKey != mapKey {
		mapper, err := mapping.ByName(cfg.Mapping, pre.geo, mapKey)
		if err != nil {
			return nil, err
		}
		m.mapper, m.mapName, m.mapKey = mapper, cfg.Mapping, mapKey
	}
	mapper := m.mapper
	dcfg := dram.Config{
		Geo:        pre.geo,
		Timing:     pre.timing,
		Mode:       cfg.Mode,
		TH:         cfg.TH,
		PRACETh:    cfg.PRACETh,
		Seed:       cfg.Seed,
		Trace:      pre.trace,
		NewPolicy:  pl.NewPolicy,
		NewTracker: pl.NewTracker,
	}
	// From here on the machine's warm state is mutated: mark the run in
	// flight so a panicking or cancelled run poisons the reuse path.
	m.dirty = true
	if m.dev == nil || !m.dev.Reset(dcfg) {
		m.dev = dram.NewDevice(dcfg)
	}
	dev := m.dev
	if m.q == nil {
		m.q = &event.Queue{}
	} else {
		m.q.Reset()
	}
	q := m.q
	rs := &m.rs
	*rs = runState{m: m, cfg: cfg}
	mcCfg := memctrl.Config{Timing: pre.timing, Mapper: mapper, RFMTH: cfg.TH,
		RAAMaxFactor: cfg.RAAMaxFactor, Trace: pre.trace}
	if cfg.RetryWaitNS > 0 {
		mcCfg.RetryWait = clk.NS(cfg.RetryWaitNS)
	}
	if pre.metrics != nil {
		rs.qHist = stats.NewHistogram()
		mcCfg.QueueHist = rs.qHist
	}
	if m.mc == nil {
		m.mc = memctrl.New(mcCfg, dev, q)
	} else {
		m.mc.Reset(mcCfg, dev, q)
	}
	rs.mc = m.mc

	// The epoch sampler rides the event queue as a periodic event (OnEvent).
	// It is armed after the controller so that at a tied tick the REF
	// dispatches before the sample (insertion order breaks ties), keeping
	// each REF in the epoch that contains it. Sampler firings are dispatched
	// events like any other, so they are counted separately and subtracted
	// from Result.Events in finish — Results stay identical with telemetry
	// on or off.
	if pre.metrics != nil {
		rs.sampler = telemetry.NewEpochSampler(pre.metrics)
		rs.epochPeriod = pre.timing.TREFI
		if pre.metrics.EpochNS > 0 {
			rs.epochPeriod = clk.NS(pre.metrics.EpochNS)
		}
		q.Schedule(q.Now()+rs.epochPeriod, rs)
	}
	// The prefetch degree changes what the LLC does, not its arrays: only
	// another geometry or latency builds a new one.
	llcCfg := cfg.llcConfig()
	kept := m.llcCfg
	kept.PrefetchDegree = llcCfg.PrefetchDegree
	if m.llc == nil || kept != llcCfg {
		m.llc = cache.New(llcCfg, rs.mc, q)
	}
	m.llcCfg = llcCfg
	llc := m.llc
	llc.SetPrefetchDegree(llcCfg.PrefetchDegree)
	m.warmLLC(newWarmKey(&cfg, llcCfg), rs.mc)

	rs.remaining = cfg.Cores
	for len(m.cores) < cfg.Cores {
		m.cores = append(m.cores, &cpu.Core{OnFinish: func() { m.rs.remaining-- }})
	}
	rs.cores = m.cores[:cfg.Cores]
	for i, c := range rs.cores {
		var strm cpu.Stream
		if cfg.NewStream != nil {
			strm = cfg.NewStream(i)
		} else {
			if i == len(m.gens) {
				m.gens = append(m.gens, &workload.Generator{})
			}
			m.gens[i].Reset(cfg.Workload, i, cfg.Seed^0xc0de)
			strm = m.gens[i]
		}
		c.Reset(i, cpu.DefaultConfig(cfg.InstructionsPerCore), strm, llc, q)
		c.Start()
	}
	return rs, nil
}

// OnEvent is the run's one recurring event when telemetry is on: it closes
// an epoch, samples it and arms the next.
func (rs *runState) OnEvent(now clk.Tick) {
	rs.probeEvents++
	cum, g := telemetrySnapshot(rs.mc, rs.m.dev)
	rs.sampler.Sample(rs.epochStart, now, cum, g)
	rs.epochStart = now
	rs.m.q.Schedule(now+rs.epochPeriod, rs)
}

// finish runs the post-dispatch sequence — telemetry flush, Result
// assembly — and marks the machine clean for reuse.
func (rs *runState) finish() Result {
	m := rs.m
	if rs.sampler != nil {
		// Close the stream: the final partial epoch (if anything happened
		// after the last boundary) and the run-level summary.
		cum, g := telemetrySnapshot(rs.mc, m.dev)
		rs.sampler.Flush(rs.epochStart, m.q.Now(), cum, g)
		rs.sampler.Summary(m.q.Now(), rs.qHist)
	}

	res := Result{
		Config:      rs.cfg,
		FinishTimes: make([]clk.Tick, len(rs.cores)),
		Events:      rs.events - rs.probeEvents,
		MC:          rs.mc.Stats,
		Dev:         m.dev.TotalStats(),
		Cache:       m.llc.Stats,
		Banks:       m.dev.Cfg.Geo.Banks,
	}
	for i, c := range rs.cores {
		res.FinishTimes[i] = c.FinishTime
		res.Instructions += c.Retired()
		if c.FinishTime > res.Elapsed {
			res.Elapsed = c.FinishTime
		}
	}
	m.dirty = false
	return res
}

// Run executes one configuration on the machine, reusing its warm state.
func (m *Machine) Run(cfg Config) (Result, error) {
	return m.RunCtx(context.Background(), cfg)
}

// RunCtx is Run on the machine with cooperative cancellation (see the
// package-level RunCtx).
func (m *Machine) RunCtx(ctx context.Context, cfg Config) (Result, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if m.dirty {
		// A panicking or cancelled run left the warm state mid-change: drop
		// it and build fresh. The pre-warm memo and the mapper are kept.
		m.q, m.llc, m.mc, m.dev, m.cores, m.gens, m.sels = nil, nil, nil, nil, nil, nil, nil
		m.dirty = false
	}
	pl, err := m.resolvePlugins(&cfg)
	if err != nil {
		return Result{}, err
	}
	// Chaos injection happens before any simulation work so induced job
	// deaths are cheap and deterministic per job identity.
	if cfg.Fault.ChaosProb > 0 {
		id := cfg.Key()
		if id == "" {
			id = fmt.Sprintf("stream:%s/%d", cfg.Workload.Name, cfg.Seed)
		}
		fault.MaybeChaosPanic(cfg.Fault, id)
	}
	rs, err := m.start(cfg, pl)
	if err != nil {
		return Result{}, err
	}

	// The engine dispatches in batches of 4096 events while a core is
	// still running, and ctx is polled between batches: ctx.Err takes a
	// lock, and the loop dispatches tens of millions of events per
	// simulated millisecond.
	q := m.q
	for rs.remaining > 0 {
		n := q.DispatchWhile(&rs.remaining, 4096)
		if n == 0 {
			break
		}
		rs.events += int64(n)
		if rs.events&0xfff == 0 && ctx.Err() != nil {
			return Result{}, fmt.Errorf("sim: run cancelled at t=%v: %w", q.Now(), ctx.Err())
		}
	}
	return rs.finish(), nil
}

// telemetrySnapshot assembles the cumulative telemetry counter set and the
// boundary gauges from the controller and device statistics. It is the one
// place that defines what each metrics field means, which is what lets
// TestEpochRecordsSumToTotals pin "epoch deltas sum to end-of-run totals".
func telemetrySnapshot(mc *memctrl.Controller, dev *dram.Device) (telemetry.Counters, telemetry.Gauges) {
	ds := dev.TotalStats()
	c := telemetry.Counters{
		Acts:            mc.Stats.Acts,
		RowHits:         mc.Stats.RowHits,
		Reads:           mc.Stats.Reads,
		Writes:          mc.Stats.Writes,
		REFs:            mc.Stats.REFs,
		RFMs:            mc.Stats.RFMs,
		Alerts:          mc.Stats.Alerts,
		PRACBackoffs:    mc.Stats.PRACBackoffs,
		Mitigations:     ds.Mitigations,
		VictimRefreshes: ds.VictimRefreshes,
		ABOAlerts:       ds.ABOAlerts,
	}
	var g telemetry.Gauges
	g.QueueDepth, g.QueueDepthMax = mc.QueueDepths()
	g.TrackerLive, g.TrackerBudget, g.TrackerSpill = dev.TrackerTableStats()
	return c, g
}

// llcConfig returns the LLC a run of c builds: Table IV's, with c's
// prefetch degree.
func (c *Config) llcConfig() cache.Config {
	llcCfg := cache.DefaultConfig()
	if c.PrefetchDegree > 0 {
		llcCfg.PrefetchDegree = c.PrefetchDegree
	} else if c.PrefetchDegree < 0 {
		llcCfg.PrefetchDegree = 0
	}
	return llcCfg
}

// footprintLines returns a core's footprint of mb megabytes in 64B lines.
func footprintLines(mb int) uint64 {
	return uint64(mb) * (1 << 20) / 64
}

// warmKey is everything prewarm reads: the draws' seed and distribution,
// and the geometry of the cache they fill. Two runs with equal keys warm
// the LLC to identical way state. The prefetch degree is not part of it:
// it changes the LLC's behavior, not its warm contents.
type warmKey struct {
	Seed        uint64
	FootprintMB int
	WriteFrac   float64
	Cores       int
	SizeBytes   int
	LineBytes   int
	Ways        int
}

// newWarmKey returns the pre-warm key of a run of cfg on an LLC built
// from llcCfg.
func newWarmKey(cfg *Config, llcCfg cache.Config) warmKey {
	return warmKey{
		Seed:        cfg.Seed,
		FootprintMB: cfg.Workload.FootprintMB,
		WriteFrac:   cfg.Workload.WriteFrac,
		Cores:       cfg.Cores,
		SizeBytes:   llcCfg.SizeBytes,
		LineBytes:   llcCfg.LineBytes,
		Ways:        llcCfg.Ways,
	}
}

// warmMemoCap is how many pre-warms a Machine keeps. One seed of the 21
// workloads needs at most 13 keys: several workloads share a footprint
// and write fraction.
const warmMemoCap = 16

// warmEntry is one saved pre-warm.
type warmEntry struct {
	key   warmKey
	state cache.WarmState
}

// warmLLC resets m.llc onto mc and pre-warms it for key k. A key in the
// memo is restored without a wipe (cache.LoadWarm) and becomes the most
// recent entry. Otherwise the LLC is wiped, prewarm runs, and its result is
// saved as the most recent entry, reusing the buffers of the least recent
// one once the memo is full.
func (m *Machine) warmLLC(k warmKey, mc *memctrl.Controller) {
	for i, e := range m.memo {
		if e.key == k {
			copy(m.memo[1:i+1], m.memo[:i])
			m.memo[0] = e
			m.llc.LoadWarm(&e.state, mc)
			return
		}
	}
	m.llc.Reset(mc)
	prewarm(m.llc, k)
	if len(m.memo) < warmMemoCap {
		m.memo = append(m.memo, &warmEntry{})
	}
	e := m.memo[len(m.memo)-1]
	copy(m.memo[1:], m.memo[:len(m.memo)-1])
	e.key = k
	m.memo[0] = e
	m.llc.SaveWarm(&e.state)
}

// prewarm fills the LLC to steady-state occupancy so short slices see the
// same capacity-eviction and writeback behaviour as long runs: every line
// slot of the configured cache is warmed with a line drawn from the cores'
// footprints, dirty with the workload's write fraction, the cores taking
// turns. k's geometry must be the one llc was built with — warming
// DefaultConfig's line count into a differently sized cache would silently
// skew occupancy (a bug this helper's regression test pins down). prewarm
// reads nothing but k, which is what lets Machine memoize its result by k.
// Returns the number of lines warmed.
func prewarm(llc *cache.Cache, k warmKey) int {
	wr := rng.New(k.Seed ^ 0x3a3a)
	totalLines := k.SizeBytes / k.LineBytes
	fpLines := footprintLines(k.FootprintMB)
	for i := 0; i < totalLines; i++ {
		line := uint64(i%k.Cores)*fpLines + uint64(wr.Int63n(int64(fpLines)))
		llc.Warm(line, wr.Bernoulli(k.WriteFrac))
	}
	return totalLines
}

// MustRun is Run, panicking on configuration errors (for benches/examples
// with constant configurations).
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Throughput is the rate-mode weighted throughput: the sum over cores of
// inverse finish times. With identical per-core instruction targets this is
// proportional to weighted speedup.
func (r Result) Throughput() float64 {
	s := 0.0
	for _, t := range r.FinishTimes {
		if t > 0 {
			s += 1 / float64(t)
		}
	}
	return s
}

// ACTPKI returns activations per kilo-instruction, the Table V metric.
func (r Result) ACTPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.MC.Acts) / float64(r.Instructions) * 1000
}

// ACTPerTREFI returns per-bank activations per tREFI, the Table V metric.
func (r Result) ACTPerTREFI() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	trefis := float64(r.Elapsed) / float64(clk.DDR5().TREFI)
	return float64(r.MC.Acts) / trefis / float64(r.Banks)
}

// AlertPerAct returns the Fig 8(b) metric.
func (r Result) AlertPerAct() float64 { return r.MC.AlertPerAct() }

// Slowdown returns the percentage slowdown of test relative to base,
// computed from weighted throughput (positive = test is slower).
func Slowdown(base, test Result) float64 {
	bt, tt := base.Throughput(), test.Throughput()
	if bt == 0 {
		return 0
	}
	return (1 - tt/bt) * 100
}
