package fault

import (
	"fmt"
	"math"

	"autorfm/internal/plugin"
)

// Injector applies one named fault injector's parameters to a Config. All
// injectors compose into the single deterministic Config the simulator
// keys and replays, so a registry-selected fault set is byte-identical to
// the same Config assembled field by field.
type Injector func(spec *plugin.Spec, c *Config) error

var registry = plugin.NewRegistry[Injector]("fault injector")

// Register adds a fault injector to the registry under info.Name. Call it
// from an init function; after that ApplySpec selects it by name.
func Register(info plugin.Info, f Injector) { registry.Register(info, f) }

// Names returns the registered injector names, sorted.
func Names() []string { return registry.Names() }

// Catalog returns the registered injectors as a -list-plugins section.
func Catalog() plugin.Section {
	return plugin.Section{Title: "fault injectors", Infos: registry.Infos()}
}

// ApplySpec parses a comma-separated injector list — e.g.
// "act-miss(p=0.01),drop-mitigation(p=0.1)" — and applies each named
// injector's parameters to c. The resulting Config passes Validate when
// every parameter is in range; Seed is a Config-wide field set separately
// (it drives all injectors' randomness).
func ApplySpec(selector string, c *Config) error {
	specs, err := plugin.ParseSpecs(selector)
	if err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	for _, spec := range specs {
		f, err := registry.Lookup(spec.Name)
		if err != nil {
			return fmt.Errorf("fault: %w", err)
		}
		if err := f(&spec, c); err != nil {
			return fmt.Errorf("fault injector %q: %w", spec.Name, err)
		}
	}
	return nil
}

// prob consumes the injector's probability parameter and range-checks it.
func prob(s *plugin.Spec, key string) (float64, error) {
	p := s.Float(key, 0)
	if err := s.Finish(); err != nil {
		return 0, err
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("parameter %s=%v outside [0, 1]", key, p)
	}
	return p, nil
}

// The built-in injectors register themselves here; each maps onto one
// Config field (see the field docs for the fault model).
func init() {
	Register(plugin.Info{
		Name:   "act-miss",
		Doc:    "tracker misses the activation entirely (no counter update)",
		Params: []plugin.ParamSpec{{Name: "p", Default: "0", Doc: "per-activation probability"}},
	}, func(s *plugin.Spec, c *Config) error {
		p, err := prob(s, "p")
		c.ActMissProb = p
		return err
	})

	Register(plugin.Info{
		Name:   "bit-flip",
		Doc:    "one bit of the observed row address flips before the tracker sees it",
		Params: []plugin.ParamSpec{{Name: "p", Default: "0", Doc: "per-activation probability"}},
	}, func(s *plugin.Spec, c *Config) error {
		p, err := prob(s, "p")
		c.TrackerBitFlipProb = p
		return err
	})

	Register(plugin.Info{
		Name:   "drop-mitigation",
		Doc:    "a tracker nomination is lost after selection; no victim refreshes happen",
		Params: []plugin.ParamSpec{{Name: "p", Default: "0", Doc: "per-nomination probability"}},
	}, func(s *plugin.Spec, c *Config) error {
		p, err := prob(s, "p")
		c.DropMitigationProb = p
		return err
	})

	Register(plugin.Info{
		Name:   "delay-mitigation",
		Doc:    "a nomination is deferred one mitigation slot (tardy mitigation)",
		Params: []plugin.ParamSpec{{Name: "p", Default: "0", Doc: "per-nomination probability"}},
	}, func(s *plugin.Spec, c *Config) error {
		p, err := prob(s, "p")
		c.DelayMitigationProb = p
		return err
	})

	Register(plugin.Info{
		Name:   "panic-after-acts",
		Doc:    "chaos: panic the simulation at the Nth activation any single bank observes",
		Params: []plugin.ParamSpec{{Name: "n", Default: "0", Doc: "activation count (0 disables)"}},
	}, func(s *plugin.Spec, c *Config) error {
		n := s.Int("n", 0)
		if err := s.Finish(); err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("parameter n=%d negative", n)
		}
		c.PanicAfterActs = n
		return nil
	})

	Register(plugin.Info{
		Name:   "chaos",
		Doc:    "chaos: each job independently panics at startup (runner-isolation stress)",
		Params: []plugin.ParamSpec{{Name: "p", Default: "0", Doc: "per-job probability"}},
	}, func(s *plugin.Spec, c *Config) error {
		p, err := prob(s, "p")
		c.ChaosProb = p
		return err
	})
}
