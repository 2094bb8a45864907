package tracker

import (
	"fmt"

	"autorfm/internal/arena"
	"autorfm/internal/plugin"
	"autorfm/internal/rng"
)

// Env is the simulation context a tracker factory may consult. The factory
// runs once per bank at every device build or Reset; nothing here is
// touched on the per-activation path.
type Env struct {
	// Bank is the index of the bank the tracker will serve.
	Bank int
	// TH is the configured mitigation interval (RFMTH / AutoRFMTH), the
	// natural default for window-sized parameters.
	TH int
	// Recursive reports whether the bank's mitigation policy relies on
	// recursive (transitive) re-mitigation, which window trackers honour by
	// reserving a transitive selection slot (MINT's W+1 mode). The device
	// sets it from the policy it built for the bank.
	Recursive bool
	// R is the bank's device-side PRNG. Trackers must draw all randomness
	// from it — never from package state — to keep runs deterministic.
	R *rng.Source
	// Arena, when non-nil, is where the tracker should carve its tables
	// (slot arrays, FIFOs, index maps) instead of the heap. sim.Machine
	// supplies its own, so the device's tracker state is contiguous and
	// warm-machine Resets re-carve instead of reallocating. Purely a
	// placement hint: carved state behaves identically to heap state.
	Arena *arena.Arena
	// Prev, when non-nil, is the tracker this bank ran before the device
	// Reset that is rebuilding it; nothing else references it any more. A
	// factory may reinitialise it in place instead of allocating when it
	// is of the factory's own type, provided the result has exactly the
	// state and PRNG draws of a fresh build. Every built-in tracker does,
	// so a warm sim.Machine rebuilds its registry-built pipelines without
	// allocating; a factory that ignores Prev allocates as before.
	Prev Tracker
}

// MaxTableEntries caps every table-size parameter (pride's fifo, parfm's
// buf, the counter trackers' entries): no tracker needs more slots than
// the 128K rows of the bank it serves, and the cap keeps a huge spec value
// — or parfm's buf defaulting to a huge TH — a config error instead of a
// failed allocation.
const MaxTableEntries = 1 << 17

// checkTable reports a table-size parameter outside [1, MaxTableEntries].
func checkTable(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s %d < 1", name, n)
	}
	if n > MaxTableEntries {
		return fmt.Errorf("%s %d above the %d-entry table cap", name, n, MaxTableEntries)
	}
	return nil
}

// Factory builds one tracker instance from a parsed parameter spec. It is
// called once per bank; parameter conversion errors must be surfaced via
// spec.Finish and invalid values returned as errors, never panics.
type Factory func(spec *plugin.Spec, env Env) (Tracker, error)

var registry = plugin.NewRegistry[Factory]("tracker")

// Register adds a tracker implementation to the registry under info.Name.
// Call it from an init function; after that, sim.Config.Tracker selects the
// implementation by name, e.g. "mint" or "mithril(entries=2048)".
func Register(info plugin.Info, f Factory) { registry.Register(info, f) }

// Names returns the registered tracker names, sorted.
func Names() []string { return registry.Names() }

// Catalog returns the registered trackers as a -list-plugins section.
func Catalog() plugin.Section {
	return plugin.Section{Title: "trackers", Infos: registry.Infos()}
}

// FromSpec resolves a selector — "name" or "name(key=value, ...)" — into a
// bound constructor. Parse and lookup errors are reported here, at config
// time; parameter errors are reported by the returned constructor's first
// call (dram.Resolve performs a probe build for exactly that reason). The
// resolution happens once per run, so per-bank construction is a direct
// factory call with no registry lookup. Every call rebuilds from the one
// parsed spec after a Reset, so each runs the full Finish check and, after
// the first, allocates nothing for it. The constructor is not safe for
// concurrent use: every caller resolves its own.
func FromSpec(selector string) (func(env Env) (Tracker, error), error) {
	spec, err := plugin.ParseSpec(selector)
	if err != nil {
		return nil, fmt.Errorf("tracker: %w", err)
	}
	f, err := registry.Lookup(spec.Name)
	if err != nil {
		return nil, fmt.Errorf("tracker: %w", err)
	}
	return func(env Env) (Tracker, error) {
		spec.Reset()
		trk, err := f(&spec, env)
		if err != nil {
			return nil, fmt.Errorf("tracker %q: %w", spec.Name, err)
		}
		return trk, nil
	}, nil
}

// The built-in trackers register themselves here. Parameter defaults are
// chosen so a bare name reproduces, bit for bit, what the simulator
// hard-wired before the registry existed (pinned by the round-trip tests in
// internal/sim).
func init() {
	Register(plugin.Info{
		Name: "mint",
		Doc:  "single-entry uniform-selection window tracker (MICRO'24; the paper's representative)",
		Params: []plugin.ParamSpec{
			{Name: "window", Default: "TH", Doc: "selection window in activations"},
			{Name: "recursive", Default: "policy", Doc: "reserve the W+1 transitive re-mitigation slot"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		window := s.Int("window", env.TH)
		recursive := s.Bool("recursive", env.Recursive)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if window < 1 {
			return nil, fmt.Errorf("window %d < 1", window)
		}
		return reuseMINT(env.Prev, window, recursive, env.R), nil
	})

	Register(plugin.Info{
		Name: "pride",
		Doc:  "probabilistic sampling into a small FIFO (ISCA'24)",
		Params: []plugin.ParamSpec{
			{Name: "window", Default: "TH", Doc: "sampling probability is 1/window"},
			{Name: "fifo", Default: "4", Doc: "FIFO entries; overflowing samples are dropped"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		window := s.Int("window", env.TH)
		fifo := s.Int("fifo", 4)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if window < 1 {
			return nil, fmt.Errorf("window %d < 1", window)
		}
		if err := checkTable("fifo", fifo); err != nil {
			return nil, err
		}
		return reusePrIDE(env.Prev, env.Arena, window, fifo, env.R), nil
	})

	Register(plugin.Info{
		Name: "parfm",
		Doc:  "buffer the window's rows, mitigate one uniformly at random (HPCA'22)",
		Params: []plugin.ParamSpec{
			{Name: "buf", Default: "TH", Doc: "reservoir buffer entries"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		buf := s.Int("buf", env.TH)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if err := checkTable("buf", buf); err != nil {
			return nil, err
		}
		return reusePARFM(env.Prev, env.Arena, buf, env.R), nil
	})

	Register(plugin.Info{
		Name: "para",
		Doc:  "classic inline per-ACT probabilistic mitigation (ISCA'14)",
		Params: []plugin.ParamSpec{
			{Name: "p", Default: "1/TH", Doc: "per-activation selection probability in (0,1]"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		p := s.Float("p", 1/float64(env.TH))
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("p %v outside (0,1]", p)
		}
		return reusePARA(env.Prev, p, env.R), nil
	})

	Register(plugin.Info{
		Name: "mithril",
		Doc:  "deterministic Misra-Gries counter summary, hottest row mitigated (HPCA'22)",
		Params: []plugin.ParamSpec{
			{Name: "entries", Default: "1024", Doc: "counter-table entry budget"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		entries := s.Int("entries", 1024)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if err := checkTable("entries", entries); err != nil {
			return nil, err
		}
		return reuseMithril(env.Prev, env.Arena, entries), nil
	})

	Register(plugin.Info{
		Name: "graphene",
		Doc:  "Misra-Gries counters with threshold-triggered nomination queue (MICRO'20)",
		Params: []plugin.ParamSpec{
			{Name: "entries", Default: "1024", Doc: "counter-table entry budget"},
			{Name: "threshold", Default: "64", Doc: "estimated count that queues a row for mitigation"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		entries := s.Int("entries", 1024)
		threshold := s.Int64("threshold", 64)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if err := checkTable("entries", entries); err != nil {
			return nil, err
		}
		if threshold < 1 {
			return nil, fmt.Errorf("threshold %d < 1", threshold)
		}
		return reuseGraphene(env.Prev, env.Arena, entries, threshold), nil
	})

	Register(plugin.Info{
		Name: "twice",
		Doc:  "time-window counters with age-based pruning (ISCA'19)",
		Params: []plugin.ParamSpec{
			{Name: "threshold", Default: "1000", Doc: "Rowhammer threshold the pruning targets (≥ 2)"},
		},
	}, func(s *plugin.Spec, env Env) (Tracker, error) {
		threshold := s.Int64("threshold", 1000)
		if err := s.Finish(); err != nil {
			return nil, err
		}
		if threshold < 2 {
			return nil, fmt.Errorf("threshold %d < 2", threshold)
		}
		return reuseTWiCe(env.Prev, env.Arena, threshold), nil
	})
}
